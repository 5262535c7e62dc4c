package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

// FuzzWireDecode throws arbitrary bytes at the protocol's receive path
// — the stream framer plus both payload decoders — and pins its
// contract: typed errors only (ErrProto wraps, io.EOF at a clean
// boundary, io.ErrUnexpectedEOF mid-frame), never a panic, and never
// an allocation driven by an unvalidated length field (the framer
// checks the length prefix against maxFrame before allocating, the
// decoders bound list lengths by maxWireList). Mirrors FuzzWALDecode,
// which pins the same contract for the log this framing is shared with.
func FuzzWireDecode(f *testing.F) {
	var valid []byte
	valid = wal.AppendFrame(valid, encodeRequest(request{op: opQuery, id: 1, query: workload.Q3, params: testParams}))
	valid = wal.AppendFrame(valid, encodeRequest(request{op: opTxn, id: 2, txn: txnNewOrder, params: testParams}))
	valid = wal.AppendFrame(valid, retiredOp03)
	valid = wal.AppendFrame(valid, retiredOp04)
	valid = wal.AppendFrame(valid, encodeResponse(response{
		id: 1, status: StatusOK, value: 7, u64s: []uint64{1, 2, 3}, rows: []string{"a", "b"},
	}))
	valid = wal.AppendFrame(valid, encodeResponse(response{
		id: 2, status: StatusErr, errClass: errClassCoordCrash, errMsg: "coordinator crashed",
	}))
	valid = wal.AppendFrame(valid, encodeResponse(response{id: 3, status: StatusOverload, shedReason: shedQueueFull}))

	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn final frame
	f.Add(valid[:5])            // torn mid-header
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/3] ^= 0x08
	f.Add(bitflip)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})         // oversized length prefix
	f.Add(wal.AppendFrame(nil, []byte("not a protocol msg"))) // CRC-valid garbage
	// CRC-valid response claiming a gigantic list (must error, not alloc).
	f.Add(wal.AppendFrame(nil, wal.NewOp(StatusOK).Uvarint(1).Uvarint(0).Byte(0).Byte(0).
		String("").Uvarint(1<<50).Build()))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream framing: consume frames until a typed error.
		rd := bytes.NewReader(data)
		var scratch []byte
		for {
			var payload []byte
			var err error
			payload, scratch, err = readFrame(rd, scratch)
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrProto) {
					t.Fatalf("readFrame: untyped error %v", err)
				}
				break
			}
			// A CRC-valid payload must decode or fail typed, both ways.
			if _, err := decodeRequest(payload); err != nil && !errors.Is(err, ErrProto) {
				t.Fatalf("decodeRequest: untyped error %v", err)
			}
			if _, err := decodeResponse(payload); err != nil && !errors.Is(err, ErrProto) {
				t.Fatalf("decodeResponse: untyped error %v", err)
			}
		}
		// Raw payloads too: the decoders are total without framing.
		if _, err := decodeRequest(data); err != nil && !errors.Is(err, ErrProto) {
			t.Fatalf("decodeRequest(raw): untyped error %v", err)
		}
		if _, err := decodeResponse(data); err != nil && !errors.Is(err, ErrProto) {
			t.Fatalf("decodeResponse(raw): untyped error %v", err)
		}
	})
}
