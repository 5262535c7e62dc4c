package udbms

import (
	"sync"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
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
// Map deep-clones before handing the row to user code. Rows() deep-
// clones anything not already rowOwned on the way out, so the public
// contract ("returned rows are yours to mutate") is unchanged while
// Count/Each and dropped rows (Limit) never pay for a clone.
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

// source produces the seed batch stream.
type source interface {
	state() rowState
	run(emit func(*Batch) bool)
}

// rowBufPool recycles the executor's row buffers — seed scan batches
// and join probe buffers — across queries. These buffers peak at a few
// KB to a few tens of KB each; allocating them fresh per query
// dominated the allocation profile of small and mid-size queries. Buffers are cleared before going back so pooled slots never
// pin store rows.
var rowBufPool = sync.Pool{New: func() any { return &rowBuf{} }}

type rowBuf struct{ rows []mmvalue.Value }

func getRowBuf(capHint int) *rowBuf {
	rb := rowBufPool.Get().(*rowBuf)
	if cap(rb.rows) < capHint {
		rb.rows = make([]mmvalue.Value, 0, capHint)
	}
	return rb
}

// putRowBuf clears rows (the buffer's current backing array, possibly
// regrown since getRowBuf) and returns it to the pool.
func putRowBuf(rb *rowBuf, rows []mmvalue.Value) {
	rows = rows[:cap(rows)]
	clear(rows)
	rb.rows = rows[:0]
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

// ---- sources ----

type relSource struct {
	t     *relational.Table
	acc   Access
	where relational.Expr
}

func (s *relSource) state() rowState { return rowShared }

func (s *relSource) run(emit func(*Batch) bool) {
	b := &Batch{}
	rb := getRowBuf(seedBufCap(s.t.Len()))
	s.acc.Hop()
	s.t.StreamBatch(s.acc.RelTx(), s.where, rb.rows, func(rows []mmvalue.Value) bool {
		b.rows, b.sel = rows, nil
		return emit(b)
	})
	putRowBuf(rb, rb.rows)
}

type docSource struct {
	c      *document.Collection
	acc    Access
	filter document.Filter
}

func (s *docSource) state() rowState { return rowShared }

func (s *docSource) run(emit func(*Batch) bool) {
	b := &Batch{}
	rb := getRowBuf(seedBufCap(s.c.Len()))
	s.acc.Hop()
	s.c.StreamBatch(s.acc.DocTx(), s.filter, rb.rows, func(rows []mmvalue.Value) bool {
		b.rows, b.sel = rows, nil
		return emit(b)
	})
	putRowBuf(rb, rb.rows)
}

type graphSource struct {
	g     *graph.Store
	acc   Access
	label string
	ok    func(graph.Vertex) bool
}

// Graph vertex rows are built fresh (cloned props + _vid/_label), so
// they are owned from the start.
func (s *graphSource) state() rowState { return rowOwned }

func (s *graphSource) run(emit func(*Batch) bool) {
	rb := getRowBuf(seedBufCap(batchCap))
	b := &Batch{rows: rb.rows}
	stopped := false
	s.acc.Hop()
	s.g.Vertices(s.acc.GraphTx(), func(v graph.Vertex) bool {
		if s.label != "" && v.Label != s.label {
			return true
		}
		if s.ok != nil && !s.ok(v) {
			return true
		}
		row := v.Props.Clone().MustObject()
		row.Set("_vid", mmvalue.String(string(v.ID)))
		row.Set("_label", mmvalue.String(v.Label))
		b.rows = append(b.rows, mmvalue.FromObject(row))
		if len(b.rows) == batchCap {
			if !emit(b) {
				stopped = true
				return false
			}
			b.reset()
		}
		return true
	})
	if !stopped && len(b.rows) > 0 {
		emit(b)
	}
	putRowBuf(rb, b.rows)
}

// ---- plan compilation and execution ----

// finalState computes the ownership of rows leaving the last stage.
func (p *Pipeline) finalState() rowState {
	if p.src == nil {
		return rowOwned
	}
	st := p.src.state()
	for _, s := range p.stages {
		st = s.outState(st)
	}
	return st
}

// execute compiles the operator chain and streams the final rows into
// onRow. Rows passed to onRow follow the pipeline's final ownership
// state — Rows() clones them as needed, Count/Each never do.
func (p *Pipeline) execute(onRow func(mmvalue.Value) bool) error {
	if p.err != nil {
		return p.err
	}
	if p.src == nil {
		return nil
	}
	head := p.wireChain(onRow)
	p.src.run(head.push)
	head.flush()
	return nil
}

// wireChain wires the stages back-to-front into a rowSink terminal.
func (p *Pipeline) wireChain(onRow func(mmvalue.Value) bool) batchSink {
	stages := p.stages
	var head batchSink = &rowSink{fn: onRow}
	st := p.src.state()
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
