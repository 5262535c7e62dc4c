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
// push-based operator chain exchanging row batches (see batch.go),
// only evaluated when a terminal (Rows, Count, Each) pulls it.
//
// Row contract. Source operators emit rows shared with the underlying
// stores; no stage mutates a row it is pushed. A stage that attaches a
// field (the joins, Unnest) extends a copy of the row object: a pooled
// scratch object when nothing downstream retains rows, else a shallow
// clone; group-by refills a scratch row, cloned for a retaining stage.
// Rows() deep-clones every row, so returned rows are the caller's to
// mutate, while Count/Each and rows dropped by Limit never pay for a clone.
//
// Every store request a source or a join issues goes through the
// pipeline's Access (pipeline.go): Hop first, then the call under that
// model's handle.

// stage is one compiled pipeline operator.
type stage interface {
	// retains reports whether the stage may hold on to pushed rows
	// beyond the push call (buffering sorts and adaptive joins do).
	// When nothing downstream retains, upstream attach stages recycle
	// scratch row objects instead of shallow-cloning per row.
	retains() bool
	// wire builds this stage's batch sink in front of down. transient
	// is true when no downstream consumer retains pushed rows.
	wire(transient bool, down batchSink) batchSink
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
// FromKVPrefix's, FromEdgeEnds's or FromXML's rows, shared with store
// memory.
type source struct {
	storeScan
	filter document.Filter
	where  relational.Expr
}

func (s *source) run(emit func([]mmvalue.Value) bool) {
	n := batchCap // kv.Store.Len counts by scanning
	if _, ok := s.side.(*kv.Store); !ok {
		n = s.side.Len()
	}
	rb := getRowBuf(seedBufCap(n))
	s.acc.Hop()
	txn.Batch(rb.rows, func(rows []mmvalue.Value) bool {
		rb.rows = rows[:max(len(rb.rows), len(rows))] // the written prefix
		return emit(rows)
	}, func(fn func(mmvalue.Value) bool) {
		switch side := s.side.(type) {
		case *document.Collection:
			side.Stream(s.tx(), s.filter, fn)
		case *relational.Table:
			side.Stream(s.tx(), s.where, fn)
		default:
			s.stream(s.tx(), fn)
		}
	})
	putRowBuf(rb, rb.rows)
}

// ---- plan compilation and execution ----

// execute compiles the operator chain and streams the final rows into
// onRow, which must neither mutate nor retain them. A plan the column
// projections serve (projection.go) runs its prefix over them.
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
	// transient: no stage after this one retains pushed rows. Terminals
	// never retain (Rows clones on collect), so the last stage always
	// sees a transient downstream.
	transient := true
	for i := len(stages) - 1; i >= 0; i-- {
		head = stages[i].wire(transient, head)
		transient = transient && !stages[i].retains()
	}
	return head
}
