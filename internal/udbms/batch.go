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

// order returns the positions of vals in ascending mmvalue.Compare
// order, descending when desc; equal values keep the order of their
// positions.
func order(vals []mmvalue.Value, desc bool) []int32 {
	perm := make([]int32, len(vals))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		r := mmvalue.Compare(vals[a], vals[b])
		if desc {
			r = -r
		}
		return cmp.Or(r, cmp.Compare(a, b))
	})
	return perm
}
