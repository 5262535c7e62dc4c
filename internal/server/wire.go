package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

// Typed protocol errors. Callers match with errors.Is.
var (
	// ErrProto marks a structurally invalid message: bad frame, bad
	// CRC, oversized length prefix, or an undecodable payload. A stream
	// that produced it is desynchronized and must be closed.
	ErrProto = errors.New("server: protocol error")
	// ErrOverload is the client-side form of a StatusOverload response:
	// the server shed the request instead of serving it (bounded queue
	// full, or the queue wait exceeded the server's deadline).
	ErrOverload = errors.New("server: request shed by admission control")
	// ErrRemote is the client-side form of a StatusErr response whose
	// error class carries no richer typed mapping.
	ErrRemote = errors.New("server: remote operation failed")
)

// maxFrame bounds one protocol frame. Every legitimate message — an
// operation with its parameters, an info or stats response, an error
// text — is a few hundred bytes at most; a bigger length prefix is
// corruption and is rejected before any allocation happens.
const maxFrame = 1 << 20

// crcTable mirrors the WAL's CRC32-Castagnoli framing so frames built
// with wal.AppendFrame verify here and vice versa.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Request op codes (first byte of every request payload). 0x03 (an
// ad-hoc query) and 0x04 (a named-suite op) are retired and decode as
// unknown.
const (
	opQuery byte = 0x01 // benchmark read query: query id + params
	opTxn   byte = 0x02 // benchmark transaction: txn kind + params
	opInfo  byte = 0x10 // dataset cardinalities + engine name + capabilities
	opNonce byte = 0x11 // server-issued run nonce
	opStats byte = 0x12 // admission-control telemetry snapshot
	opPing  byte = 0x13 // liveness probe
)

// Transaction kinds carried by opTxn requests.
const (
	txnOrderUpdate       byte = 1 // T1 (with deadlock retry)
	txnOrderUpdateOnce   byte = 2 // T1, single attempt
	txnStockTransferOnce byte = 3 // T5, single attempt
	txnNewOrder          byte = 4 // T2
	txnWriteFeedback     byte = 5 // T3
	txnSnapshotRead      byte = 6 // T4; result value 1 = torn view
)

// Response statuses (first byte of every response payload).
const (
	// StatusOK carries the operation result.
	StatusOK byte = 0x00
	// StatusErr carries a typed engine error (deadlock, 2PC crash, ...).
	StatusErr byte = 0x01
	// StatusOverload is the admission-control rejection: the request
	// was shed, never executed, and is safe to retry elsewhere/later.
	StatusOverload byte = 0x02
)

// Error classes inside StatusErr responses, so the client can
// reconstruct the typed errors the driver's abort accounting matches
// on (txn.ErrDeadlock, federation.ErrCoordinatorCrash).
const (
	errClassGeneric     byte = 0
	errClassDeadlock    byte = 1
	errClassCoordCrash  byte = 2
	errClassUnsupported byte = 3 // e.g. a txn on a backend without native transactions
)

// Shed reasons inside StatusOverload responses.
const (
	shedQueueFull byte = 1
	shedDeadline  byte = 2
)

// request is one decoded client request.
type request struct {
	op     byte
	id     uint64
	query  workload.QueryID
	txn    byte
	params workload.Params
}

// response is one decoded server response. The body layout is uniform
// across statuses and ops: value + u64 list + string list + error
// fields, with unused parts empty — one decoder, no op-dependent
// branching, trivially total for the fuzzer.
type response struct {
	id         uint64
	status     byte
	value      uint64   // query cardinality / torn flag / nonce
	u64s       []uint64 // info cardinalities, stats counters
	rows       []string // info: engine name, capability descriptor
	errClass   byte
	shedReason byte
	errMsg     string
}

// appendParams encodes the operation parameters in a fixed field order.
func appendParams(e *wal.OpEncoder, p workload.Params) {
	e.Uvarint(uint64(p.CustomerID))
	e.String(p.OrderID)
	e.String(p.ProductID)
	e.String(p.ProductID2)
	e.String(p.City)
	e.Uvarint(uint64(p.TopN))
	e.Uvarint(math.Float64bits(p.Threshold))
	e.Uvarint(uint64(p.Rating))
	e.String(p.FreshID)
}

func decodeParams(d *wal.OpDecoder) workload.Params {
	return workload.Params{
		CustomerID: int(d.Uvarint()),
		OrderID:    d.String(),
		ProductID:  d.String(),
		ProductID2: d.String(),
		City:       d.String(),
		TopN:       int(d.Uvarint()),
		Threshold:  math.Float64frombits(d.Uvarint()),
		Rating:     int(d.Uvarint()),
		FreshID:    d.String(),
	}
}

// encodeRequest builds the request payload (unframed).
func encodeRequest(r request) []byte {
	e := wal.NewOp(r.op)
	e.Uvarint(r.id)
	switch r.op {
	case opQuery:
		e.Uvarint(uint64(r.query))
		appendParams(e, r.params)
	case opTxn:
		e.Byte(r.txn)
		appendParams(e, r.params)
	}
	return e.Build()
}

// decodeRequest parses a request payload. Arbitrary input yields an
// error wrapping ErrProto; the decoder never panics.
func decodeRequest(payload []byte) (request, error) {
	d := wal.DecodeOp(payload)
	r := request{op: d.Code()}
	r.id = d.Uvarint()
	switch r.op {
	case opQuery:
		r.query = workload.QueryID(d.Uvarint())
		r.params = decodeParams(d)
	case opTxn:
		r.txn = d.Byte()
		r.params = decodeParams(d)
		if d.Err() == nil && (r.txn < txnOrderUpdate || r.txn > txnSnapshotRead) {
			return r, fmt.Errorf("%w: unknown txn kind 0x%02x", ErrProto, r.txn)
		}
	case opInfo, opNonce, opStats, opPing:
		// header only
	default:
		return r, fmt.Errorf("%w: unknown request op 0x%02x", ErrProto, r.op)
	}
	if err := d.Done(); err != nil {
		return r, fmt.Errorf("%w: %v", ErrProto, err)
	}
	if r.op == opQuery && (r.query < workload.Q1 || r.query > workload.QueryID(len(workload.AllQueries))) {
		return r, fmt.Errorf("%w: unknown query id %d", ErrProto, int(r.query))
	}
	return r, nil
}

// maxWireList bounds decoded list lengths so a short hostile payload
// cannot make the decoder pre-allocate gigabytes.
const maxWireList = 1 << 16

// encodeResponse builds the response payload (unframed).
func encodeResponse(r response) []byte {
	e := wal.NewOp(r.status)
	e.Uvarint(r.id)
	e.Uvarint(r.value)
	e.Byte(r.errClass)
	e.Byte(r.shedReason)
	e.String(r.errMsg)
	e.Uvarint(uint64(len(r.u64s)))
	for _, u := range r.u64s {
		e.Uvarint(u)
	}
	e.Uvarint(uint64(len(r.rows)))
	for _, s := range r.rows {
		e.String(s)
	}
	return e.Build()
}

// decodeResponse parses a response payload. Arbitrary input yields an
// error wrapping ErrProto; the decoder never panics or over-allocates.
func decodeResponse(payload []byte) (response, error) {
	d := wal.DecodeOp(payload)
	r := response{status: d.Code()}
	if r.status > StatusOverload {
		return r, fmt.Errorf("%w: unknown response status 0x%02x", ErrProto, r.status)
	}
	r.id = d.Uvarint()
	r.value = d.Uvarint()
	r.errClass = d.Byte()
	r.shedReason = d.Byte()
	r.errMsg = d.String()
	if n := d.Uvarint(); n > 0 {
		if n > maxWireList {
			return r, fmt.Errorf("%w: u64 list of %d", ErrProto, n)
		}
		r.u64s = make([]uint64, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.u64s = append(r.u64s, d.Uvarint())
		}
	}
	if n := d.Uvarint(); n > 0 {
		if n > maxWireList {
			return r, fmt.Errorf("%w: row list of %d", ErrProto, n)
		}
		r.rows = make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.rows = append(r.rows, d.String())
		}
	}
	if err := d.Done(); err != nil {
		return r, fmt.Errorf("%w: %v", ErrProto, err)
	}
	return r, nil
}

// readFrame reads one CRC-framed payload from the stream into scratch
// (grown as needed) and returns the payload aliasing it. The length
// prefix is validated against maxFrame before any allocation. io.EOF
// is returned only at a clean frame boundary; a partial frame surfaces
// as io.ErrUnexpectedEOF, and CRC/length violations wrap ErrProto.
func readFrame(r io.Reader, scratch []byte) (payload, grown []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, scratch, io.EOF
		}
		return nil, scratch, err
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size > maxFrame {
		return nil, scratch, fmt.Errorf("%w: frame length %d exceeds %d", ErrProto, size, maxFrame)
	}
	if cap(scratch) < int(size) {
		scratch = make([]byte, size)
	}
	scratch = scratch[:size]
	if _, err := io.ReadFull(r, scratch); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, scratch, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	if got := crc32.Checksum(scratch, crcTable); got != want {
		return nil, scratch, fmt.Errorf("%w: frame crc %08x != %08x", ErrProto, got, want)
	}
	return scratch, scratch, nil
}
