package udbms

import (
	"sync"

	"udbench/internal/document"
	"udbench/internal/kv"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// This file is the vectorized execution engine behind Pipeline: a
// push-based operator chain exchanging column batches (see batch.go),
// only evaluated when a terminal (Rows, Count, Each) pulls it.
//
// Ownership model. Source operators emit rows that are *shared* with
// the underlying stores — no clone is taken during execution. Each
// stage declares how it changes ownership:
//
//   - rowShared:  the row aliases store memory entirely; read-only.
//   - rowShallow: the top-level object is owned (fields can be added)
//     but nested values may still alias the store.
//   - rowOwned:   deep-cloned, fully owned by the pipeline.
//
// Join stages shallow-clone on demand before attaching match arrays;
// group-by emits fresh rows. Rows() deep-clones anything not already
// rowOwned on the way out, so the public contract ("returned rows are
// yours to mutate") is unchanged while Count/Each and dropped rows
// (Limit) never pay for a clone.
//
// Every store request a source or a join issues goes through the
// pipeline's Access (pipeline.go): Hop first, then the call under that
// model's handle.

type rowState uint8

const (
	rowShared rowState = iota
	rowShallow
	rowOwned
)

// stage is one compiled pipeline operator.
type stage interface {
	// outState reports the ownership of rows this stage emits, given
	// the ownership of rows it receives.
	outState(in rowState) rowState
	// retains reports whether the stage may hold on to pushed rows
	// beyond the push call (buffering sorts and adaptive joins do).
	// When nothing downstream retains, upstream attach stages recycle
	// scratch row objects instead of shallow-cloning per row.
	retains() bool
	// wire builds this stage's batch sink in front of down. transient
	// is true when no downstream consumer retains pushed rows.
	wire(in rowState, transient bool, down batchSink) batchSink
}

// rowBufPool recycles the executor's row buffers — seed scan batches
// and join probe buffers — across queries. These buffers peak at a few
// KB to a few tens of KB each; allocating them fresh per query
// dominated the allocation profile of small and mid-size queries.
// Pooled buffers are zero in every slot, so a pooled slot never pins a
// store row: a user clears exactly the prefix it wrote before handing
// the buffer back. A point query borrowing a buffer a large join grew
// thus pays for the few slots it touched, not for the capacity.
var rowBufPool = sync.Pool{New: func() any { return &rowBuf{} }}

type rowBuf struct{ rows []mmvalue.Value }

func getRowBuf(capHint int) *rowBuf {
	rb := rowBufPool.Get().(*rowBuf)
	if cap(rb.rows) < capHint {
		rb.rows = make([]mmvalue.Value, 0, capHint)
	}
	return rb
}

// putRowBuf clears used — the written prefix of the buffer's current
// backing array, possibly regrown since getRowBuf — and returns the
// buffer to the pool. Slots past len(used) must never have been written.
func putRowBuf(rb *rowBuf, used []mmvalue.Value) {
	clear(used)
	rb.rows = used[:0]
	rowBufPool.Put(rb)
}

// seedBufCap sizes a seed scan's batch buffer: full batches for large
// stores, right-sized ones for small stores — a fixed batchCap buffer
// (batchCap rows of 72-byte values) would dwarf the per-query
// allocations of every small and mid-size query.
func seedBufCap(n int) int {
	if n > batchCap {
		return batchCap
	}
	if n < 16 {
		return 16
	}
	return n
}

// ---- source ----

// source produces the seed batch stream: the documents of a collection
// matching filter, the rows of a table matching where (nil = all), or
// FromKVPrefix's or FromEdgeEnds's rows, shared with store memory.
type source struct {
	storeScan
	filter document.Filter
	where  relational.Expr
}

func (s *source) run(emit func(*Batch) bool) {
	b := &Batch{}
	n := batchCap // kv.Store.Len counts by scanning
	if _, ok := s.side.(*kv.Store); !ok {
		n = s.side.Len()
	}
	rb := getRowBuf(seedBufCap(n))
	s.acc.Hop()
	fn := func(rows []mmvalue.Value) bool {
		rb.rows = rows[:max(len(rb.rows), len(rows))] // the written prefix
		b.rows = rows
		return emit(b)
	}
	switch side := s.side.(type) {
	case *document.Collection:
		side.StreamBatch(s.tx(), s.filter, rb.rows, fn)
	case *relational.Table:
		side.StreamBatch(s.tx(), s.where, rb.rows, fn)
	default:
		txn.Batch(rb.rows, fn, func(emit func(mmvalue.Value) bool) { s.stream(s.tx(), emit) })
	}
	putRowBuf(rb, rb.rows)
}

// ---- plan compilation and execution ----

// finalState computes the ownership of rows leaving the last stage.
func (p *Pipeline) finalState() rowState {
	if p.src == nil {
		return rowOwned
	}
	st := rowShared
	for _, s := range p.stages {
		st = s.outState(st)
	}
	return st
}

// execute compiles the operator chain and streams the final rows into
// onRow. Rows passed to onRow follow the pipeline's final ownership
// state — Rows() clones them as needed, Count/Each never do. A plan the
// column projections serve (projection.go) runs its prefix over them.
func (p *Pipeline) execute(onRow func(mmvalue.Value) bool) error {
	if p.err != nil {
		return p.err
	}
	if p.src == nil || p.runProjected(onRow) {
		return nil
	}
	head := wireChain(p.stages, onRow)
	p.src.run(head.push)
	head.flush()
	return nil
}

// wireChain wires stages back-to-front into a rowSink terminal.
func wireChain(stages []stage, onRow func(mmvalue.Value) bool) batchSink {
	var head batchSink = &rowSink{fn: onRow}
	st := rowShared
	states := make([]rowState, len(stages))
	for i, s := range stages {
		states[i] = st
		st = s.outState(st)
	}
	// transient[i]: no stage after i retains pushed rows. Terminals
	// never retain (Rows clones on collect), so the last stage always
	// sees a transient downstream.
	transient := true
	for i := len(stages) - 1; i >= 0; i-- {
		head = stages[i].wire(states[i], transient, head)
		transient = transient && !stages[i].retains()
	}
	return head
}
