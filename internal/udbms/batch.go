package udbms

import (
	"udbench/internal/mmvalue"
)

// This file defines the columnar unit of execution. Operators do not
// exchange single rows through interface calls: they exchange a *Batch
// of up to batchCap row references, so the per-row dynamic dispatch of
// a push-based chain is amortized to one virtual call per batch, and
// the inner loops over a batch are monomorphic and inlinable.

const (
	// batchCap is the maximum number of rows per Batch. 1024 rows keeps
	// a batch of Value headers (~48 KB) inside L1/L2 while amortizing
	// the per-batch operator dispatch to noise.
	batchCap = 1024
)

// Batch is a transient view of up to batchCap rows flowing through the
// executor: whole-row mmvalue references, possibly shared with store
// memory.
//
// Batches are owned by the operator that emits them and are valid only
// for the duration of the downstream push call: buffering stages (sort,
// join, group-by) copy the row references they keep; nothing may retain
// the Batch itself.
type Batch struct {
	rows []mmvalue.Value
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i-th row (0 <= i < Len()).
func (b *Batch) Row(i int) mmvalue.Value { return b.rows[i] }

// truncate drops all but the first n rows.
func (b *Batch) truncate(n int) { b.rows = b.rows[:n] }

// reset empties the batch for reuse, keeping row capacity.
func (b *Batch) reset() { b.rows = b.rows[:0] }

// colVec is a column extracted from buffered rows: the values at one
// path, plus enough kind bookkeeping to decide whether a typed vector
// (int64/float64/string) can replace mmvalue comparisons in the hot
// loop. Values are headers only — extraction never clones.
type colVec struct {
	vals []mmvalue.Value
	// kinds is a bitmask of the mmvalue kinds seen; homogeneous()
	// reports a typed fast path only when exactly one scalar kind is
	// present across every value.
	kinds uint16
}

func (c *colVec) reset() {
	c.vals = c.vals[:0]
	c.kinds = 0
}

func (c *colVec) append(v mmvalue.Value) {
	c.vals = append(c.vals, v)
	c.kinds |= 1 << uint(v.Kind())
}

// homogeneous reports the single scalar kind shared by every value, if
// any. Mixed batches (or any null/array/object value) fall back to the
// mmvalue column.
func (c *colVec) homogeneous() (mmvalue.Kind, bool) {
	switch c.kinds {
	case 1 << uint(mmvalue.KindInt):
		return mmvalue.KindInt, true
	case 1 << uint(mmvalue.KindFloat):
		return mmvalue.KindFloat, true
	case 1 << uint(mmvalue.KindString):
		return mmvalue.KindString, true
	}
	return mmvalue.KindNull, false
}

// ints materializes the typed int64 vector (call only when homogeneous
// reported KindInt).
func (c *colVec) ints(buf []int64) []int64 {
	buf = buf[:0]
	for _, v := range c.vals {
		i, _ := v.AsInt()
		buf = append(buf, i)
	}
	return buf
}

// floats materializes the typed float64 vector (KindFloat only).
func (c *colVec) floats(buf []float64) []float64 {
	buf = buf[:0]
	for _, v := range c.vals {
		f, _ := v.AsFloat()
		buf = append(buf, f)
	}
	return buf
}

// strs materializes the typed string vector (KindString only).
func (c *colVec) strs(buf []string) []string {
	buf = buf[:0]
	for _, v := range c.vals {
		s, _ := v.AsString()
		buf = append(buf, s)
	}
	return buf
}
