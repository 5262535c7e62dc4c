// Package wal implements UDBench's write-ahead log: CRC-checksummed,
// length-prefixed commit records appended in timestamp order, flushed
// in group-commit batches that follow the transaction manager's
// published watermark, plus atomically-installed store snapshots.
//
// The package is a leaf: it knows nothing about stores or the
// transaction manager. Stores encode their mutations as opaque op
// blobs (OpEncoder), the manager hands the blobs to Log.Append/Commit,
// and recovery decodes them back (Replay, OpDecoder) for a dispatcher
// in internal/durable to apply.
//
// Robustness contract: every decoder in this package returns typed
// errors (ErrTorn, ErrCorrupt) and never panics on arbitrary input —
// pinned by FuzzWALDecode. Replay truncates a torn or corrupt tail so
// a crashed log is reopened at a clean record boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Typed decode/IO errors. Callers match with errors.Is.
var (
	// ErrTorn marks a record cut short by a crash: the frame header or
	// payload extends past the end of the log. Replay truncates it.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt marks a record that is structurally present but
	// invalid: CRC mismatch, absurd length, or undecodable payload.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrSealed is returned for every append or commit after the log
	// sealed itself on a write/fsync failure. The in-memory engine keeps
	// serving reads; only durability is refused.
	ErrSealed = errors.New("wal: log sealed after write/fsync failure")
	// ErrClosed is returned when using a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// Frame layout: [4B payload length LE][4B CRC32-Castagnoli of payload][payload].
const frameHeader = 8

// maxFrameLen rejects absurd lengths before allocating: a frame this
// size cannot be a real commit record, so a larger prefix is corruption.
const maxFrameLen = 1 << 28

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one length-prefixed, checksummed frame holding
// payload to buf and returns the extended slice.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// DecodeFrame reads one frame from the front of data, returning the
// payload and the number of bytes consumed. io.EOF means data ends at
// a clean frame boundary; ErrTorn means a frame starts but is cut
// short; ErrCorrupt means the frame is complete but invalid.
func DecodeFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) == 0 {
		return nil, 0, io.EOF
	}
	if len(data) < frameHeader {
		return nil, 0, fmt.Errorf("%w: %d-byte partial header", ErrTorn, len(data))
	}
	size := binary.LittleEndian.Uint32(data)
	if size > maxFrameLen {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, size)
	}
	end := frameHeader + int(size)
	if len(data) < end {
		return nil, 0, fmt.Errorf("%w: frame wants %d bytes, %d remain", ErrTorn, end, len(data))
	}
	payload = data[frameHeader:end]
	want := binary.LittleEndian.Uint32(data[4:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Errorf("%w: crc %08x != %08x", ErrCorrupt, got, want)
	}
	return payload, end, nil
}

// Commit-record payload layout:
// [8B commit timestamp LE][uvarint op count]([uvarint op length][op bytes])*

// AppendCommit appends the commit-record payload for (ts, ops) to buf.
func AppendCommit(buf []byte, ts uint64, ops [][]byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = binary.AppendUvarint(buf, uint64(len(op)))
		buf = append(buf, op...)
	}
	return buf
}

// DecodeCommit decodes a commit-record payload. Invalid input yields
// an error wrapping ErrCorrupt; the decoder never panics.
func DecodeCommit(payload []byte) (ts uint64, ops [][]byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: commit record shorter than timestamp", ErrCorrupt)
	}
	ts = binary.LittleEndian.Uint64(payload)
	rest := payload[8:]
	count, w := binary.Uvarint(rest)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad op count", ErrCorrupt)
	}
	rest = rest[w:]
	if count > uint64(len(rest))+1 { // every op costs >= 1 length byte
		return 0, nil, fmt.Errorf("%w: op count %d exceeds record", ErrCorrupt, count)
	}
	ops = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		size, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, nil, fmt.Errorf("%w: bad op length", ErrCorrupt)
		}
		rest = rest[w:]
		if size > uint64(len(rest)) {
			return 0, nil, fmt.Errorf("%w: op length %d exceeds record", ErrCorrupt, size)
		}
		ops = append(ops, rest[:size])
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after ops", ErrCorrupt, len(rest))
	}
	return ts, ops, nil
}

// Opcodes — the first byte of every op blob names the store mutation
// it replays to. Values are frozen: they are on disk.
const (
	// Key-value store.
	OpKVPut    byte = 0x10
	OpKVDelete byte = 0x11
	// Document store. Put carries the full post-image, so Insert,
	// Update and SetPath log the same op.
	OpDocPut         byte = 0x20
	OpDocDelete      byte = 0x21
	OpDocCreateIndex byte = 0x22
	// Relational store.
	OpRelCreateTable byte = 0x30
	OpRelCreateIndex byte = 0x31
	OpRelPut         byte = 0x32
	OpRelDelete      byte = 0x33
	// Property graph.
	OpGraphVertex       byte = 0x40
	OpGraphEdge         byte = 0x41
	OpGraphVertexProps  byte = 0x42
	OpGraphRemoveVertex byte = 0x43
	OpGraphRemoveEdge   byte = 0x44
	// XML store.
	OpXMLPut    byte = 0x50
	OpXMLDelete byte = 0x51
)

// OpEncoder builds one op blob. Stores write the opcode plus their
// arguments in a fixed order; the matching OpDecoder reads them back.
type OpEncoder struct {
	buf []byte
}

// NewOp starts an op blob with the given opcode.
func NewOp(code byte) *OpEncoder {
	return &OpEncoder{buf: append(make([]byte, 0, 64), code)}
}

// String appends a length-prefixed string.
func (e *OpEncoder) String(s string) *OpEncoder {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Bytes appends a length-prefixed byte slice.
func (e *OpEncoder) Bytes(b []byte) *OpEncoder {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Uvarint appends an unsigned varint.
func (e *OpEncoder) Uvarint(u uint64) *OpEncoder {
	e.buf = binary.AppendUvarint(e.buf, u)
	return e
}

// Byte appends one raw byte.
func (e *OpEncoder) Byte(b byte) *OpEncoder {
	e.buf = append(e.buf, b)
	return e
}

// Bool appends a boolean as one byte.
func (e *OpEncoder) Bool(b bool) *OpEncoder {
	if b {
		return e.Byte(1)
	}
	return e.Byte(0)
}

// Build returns the finished op blob.
func (e *OpEncoder) Build() []byte { return e.buf }

// OpDecoder reads an op blob back. Errors are sticky: after the first
// failure every accessor returns a zero value and Err reports the
// cause (wrapping ErrCorrupt). The decoder never panics.
type OpDecoder struct {
	code byte
	data []byte
	err  error
}

// DecodeOp wraps an op blob for decoding.
func DecodeOp(op []byte) *OpDecoder {
	if len(op) == 0 {
		return &OpDecoder{err: fmt.Errorf("%w: empty op", ErrCorrupt)}
	}
	return &OpDecoder{code: op[0], data: op[1:]}
}

// Code returns the opcode (0 when the blob was empty).
func (d *OpDecoder) Code() byte { return d.code }

func (d *OpDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: op 0x%02x: %s", ErrCorrupt, d.code, fmt.Sprintf(format, args...))
	}
}

// String reads a length-prefixed string.
func (d *OpDecoder) String() string { return string(d.Bytes()) }

// Bytes reads a length-prefixed byte slice (aliasing the blob).
func (d *OpDecoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	n, w := binary.Uvarint(d.data)
	if w <= 0 {
		d.fail("bad length prefix")
		return nil
	}
	d.data = d.data[w:]
	if n > uint64(len(d.data)) {
		d.fail("length %d exceeds op", n)
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (d *OpDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, w := binary.Uvarint(d.data)
	if w <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.data = d.data[w:]
	return u
}

// Byte reads one raw byte.
func (d *OpDecoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// Bool reads a one-byte boolean.
func (d *OpDecoder) Bool() bool { return d.Byte() != 0 }

// Err returns the first decode failure, or nil.
func (d *OpDecoder) Err() error { return d.err }

// Done verifies the blob was fully consumed and error-free.
func (d *OpDecoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("%w: op 0x%02x: %d trailing bytes", ErrCorrupt, d.code, len(d.data))
	}
	return nil
}
