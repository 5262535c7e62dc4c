package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a much longer payload with bytes \x00\xff")}
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
		off += n
	}
	if _, _, err := DecodeFrame(buf[off:]); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestDecodeFrameTornAndCorrupt(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload-bytes"))
	// Every proper prefix is torn, never corrupt, never a panic.
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := DecodeFrame(frame[:cut])
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d: got %v, want ErrTorn", cut, err)
		}
	}
	// A flipped payload bit is corrupt.
	for _, flip := range []int{frameHeader, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[flip] ^= 0x40
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip %d: got %v, want ErrCorrupt", flip, err)
		}
	}
	// An absurd length is corrupt, not an allocation attempt.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: got %v, want ErrCorrupt", err)
	}
}

func TestCommitRoundTrip(t *testing.T) {
	ops := [][]byte{
		NewOp(OpKVPut).String("k1").Bytes([]byte("v1")).Build(),
		NewOp(OpXMLPut).String("doc9").Build(),
		{},
	}
	payload := AppendCommit(nil, 42, ops)
	ts, got, err := DecodeCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ts != 42 || len(got) != len(ops) {
		t.Fatalf("ts=%d ops=%d, want 42/%d", ts, len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("op %d mismatch", i)
		}
	}
	// Truncations and garbage return typed errors.
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := DecodeCommit(payload[:cut]); err == nil && cut < len(payload) {
			// Some prefixes happen to decode as fewer ops only if the
			// structure stays valid; the trailing-bytes check rejects that.
			t.Fatalf("cut %d decoded successfully", cut)
		}
	}
	if _, _, err := DecodeCommit([]byte("garbage!")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: got %v", err)
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	op := NewOp(OpRelPut).String("orders").Bytes([]byte{1, 2, 3}).Uvarint(777).Bool(true).Byte(9).Build()
	d := DecodeOp(op)
	if d.Code() != OpRelPut {
		t.Fatalf("code = %#x", d.Code())
	}
	if s := d.String(); s != "orders" {
		t.Fatalf("string = %q", s)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", b)
	}
	if u := d.Uvarint(); u != 777 {
		t.Fatalf("uvarint = %d", u)
	}
	if !d.Bool() || d.Byte() != 9 {
		t.Fatal("bool/byte mismatch")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Sticky error on truncated input; trailing bytes rejected.
	d = DecodeOp(op[:3])
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("truncated op decoded without error")
	}
	d = DecodeOp(op)
	_ = d.String()
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
	if err := DecodeOp(nil).Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty op: %v", err)
	}
}
