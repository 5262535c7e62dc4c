package udbms

import (
	"cmp"
	"slices"

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
	// kinds is a bitmask of the mmvalue kinds seen; order takes a typed
	// fast path only when exactly one scalar kind is present across
	// every value.
	kinds uint16
}

func (c *colVec) append(v mmvalue.Value) {
	c.vals = append(c.vals, v)
	c.kinds |= 1 << uint(v.Kind())
}

// order returns the positions of the values in ascending
// mmvalue.Compare order, descending when desc; equal values keep the
// order of their positions. Values all of one scalar kind compare as a
// typed vector; any other mix (nulls included) through mmvalue.Compare.
func (c *colVec) order(desc bool) []int32 {
	var compare func(a, b int32) int
	switch c.kinds {
	case 1 << mmvalue.KindInt:
		compare = typedCompare(c.vals, mmvalue.Value.AsInt)
	case 1 << mmvalue.KindFloat:
		compare = typedCompare(c.vals, mmvalue.Value.AsFloat)
	case 1 << mmvalue.KindString:
		compare = typedCompare(c.vals, mmvalue.Value.AsString)
	default:
		compare = func(a, b int32) int { return mmvalue.Compare(c.vals[a], c.vals[b]) }
	}
	perm := make([]int32, len(c.vals))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		r := compare(a, b)
		if desc {
			r = -r
		}
		return cmp.Or(r, cmp.Compare(a, b))
	})
	return perm
}

// typedCompare compares positions of vals as T, extracted once by as.
// cmp.Compare orders NaN first and equal to itself, as mmvalue.Compare
// does.
func typedCompare[T cmp.Ordered](vals []mmvalue.Value, as func(mmvalue.Value) (T, bool)) func(a, b int32) int {
	v := make([]T, len(vals))
	for i, x := range vals {
		v[i], _ = as(x)
	}
	return func(a, b int32) int { return cmp.Compare(v[a], v[b]) }
}
