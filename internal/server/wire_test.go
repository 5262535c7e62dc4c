package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

var testParams = workload.Params{
	CustomerID: 17, OrderID: "O-442", ProductID: "P-9", ProductID2: "P-12",
	City: "Hangzhou", TopN: 5, Threshold: 3.25, Rating: 4, FreshID: "O-r1-c2-s3",
}

// Intact payloads of the two retired request ops, in the layouts they
// had: 0x03 an ad-hoc query text, 0x04 a suite name, an op name and
// the parameters.
var (
	retiredOp03 = wal.NewOp(0x03).Uvarint(1).Uvarint(0).String("x").Build()
	retiredOp04 = func() []byte {
		e := wal.NewOp(0x04).Uvarint(1).Uvarint(0).String("t2").String("Q1")
		appendParams(e, testParams)
		return e.Build()
	}()
)

// TestRequestRoundTrip pins encode→frame→readFrame→decode identity for
// every request op.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{op: opQuery, id: 1, query: workload.Q7, params: testParams},
		{op: opTxn, id: 2, txn: txnStockTransferOnce, params: testParams},
		{op: opTxn, id: 3, txn: txnSnapshotRead},
		{op: opInfo, id: 5},
		{op: opNonce, id: 6},
		{op: opStats, id: 7},
		{op: opPing, id: 8},
	}
	var stream []byte
	for _, r := range reqs {
		stream = wal.AppendFrame(stream, encodeRequest(r))
	}
	rd := bytes.NewReader(stream)
	var scratch []byte
	for i, want := range reqs {
		var payload []byte
		var err error
		payload, scratch, err = readFrame(rd, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, _, err := readFrame(rd, scratch); err != io.EOF {
		t.Errorf("end of stream: err = %v, want io.EOF", err)
	}
}

// TestResponseRoundTrip pins the response encoding the same way.
func TestResponseRoundTrip(t *testing.T) {
	resps := []response{
		{id: 1, status: StatusOK, value: 42},
		{id: 2, status: StatusOK, u64s: []uint64{50, 20, 80}, rows: []string{"udbms"}},
		{id: 3, status: StatusOK, rows: []string{"row one", "", "row three"}},
		{id: 4, status: StatusErr, errClass: errClassDeadlock, errMsg: "deadlock victim"},
		{id: 5, status: StatusOverload, shedReason: shedDeadline},
		{id: 6, status: StatusOverload, shedReason: shedQueueFull},
	}
	for i, want := range resps {
		got, err := decodeResponse(encodeResponse(want))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestReadFrameErrors pins the stream reader's failure contract: typed
// ErrProto for oversized prefixes (before allocating) and CRC damage,
// io.ErrUnexpectedEOF for torn frames, io.EOF only at a clean boundary.
func TestReadFrameErrors(t *testing.T) {
	valid := wal.AppendFrame(nil, encodeRequest(request{op: opPing, id: 9}))

	t.Run("oversized length prefix", func(t *testing.T) {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], maxFrame+1)
		_, _, err := readFrame(bytes.NewReader(hdr[:]), nil)
		if !errors.Is(err, ErrProto) {
			t.Errorf("err = %v, want ErrProto", err)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(valid[:5]), nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(valid[:len(valid)-2]), nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("crc flip", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0x01
		_, _, err := readFrame(bytes.NewReader(bad), nil)
		if !errors.Is(err, ErrProto) {
			t.Errorf("err = %v, want ErrProto", err)
		}
	})
	t.Run("clean eof", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(nil), nil)
		if err != io.EOF {
			t.Errorf("err = %v, want bare io.EOF", err)
		}
	})
}

// TestDecodeRejects pins payload-level validation: unknown ops, txn
// kinds, query ids, statuses and trailing bytes all fail typed.
func TestDecodeRejects(t *testing.T) {
	cases := map[string][]byte{
		"unknown request op": wal.NewOp(0x7f).Uvarint(1).Uvarint(0).Build(),
		"retired op 0x03":    retiredOp03,
		"retired op 0x04":    retiredOp04,
		"unknown txn kind":   encodeRequest(request{op: opTxn, id: 1, txn: 99}),
		"query id zero":      encodeRequest(request{op: opQuery, id: 1, query: 0}),
		"query id huge":      encodeRequest(request{op: opQuery, id: 1, query: workload.QueryID(len(workload.AllQueries) + 1)}),
		"trailing bytes":     append(encodeRequest(request{op: opPing, id: 1}), 0xAA),
		"truncated params":   encodeRequest(request{op: opTxn, id: 1, txn: txnNewOrder})[:6],
	}
	for name, payload := range cases {
		if _, err := decodeRequest(payload); !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", name, err)
		}
	}
	for _, name := range []string{"retired op 0x03", "retired op 0x04"} {
		if _, err := decodeRequest(cases[name]); err == nil || !strings.Contains(err.Error(), "unknown request op") {
			t.Errorf("%s: err = %v, want unknown request op", name, err)
		}
	}
	respCases := map[string][]byte{
		"unknown status": wal.NewOp(0x77).Uvarint(1).Build(),
		"trailing bytes": append(encodeResponse(response{id: 1, status: StatusOK}), 0xBB),
		"huge u64 list": wal.NewOp(StatusOK).Uvarint(1).Uvarint(0).Byte(0).Byte(0).
			String("").Uvarint(1 << 40).Build(),
	}
	for name, payload := range respCases {
		if _, err := decodeResponse(payload); !errors.Is(err, ErrProto) {
			t.Errorf("response %s: err = %v, want ErrProto", name, err)
		}
	}
}
