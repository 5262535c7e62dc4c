package udbms

import (
	"cmp"
	"slices"

	"udbench/internal/mmvalue"
)

// batchCap is the most rows an operator pushes downstream in one call.
// Operators exchange plain []mmvalue.Value batches, so the per-row
// dynamic dispatch of a push-based chain is amortized to one virtual
// call per batch. 1024 rows keeps a batch of Value headers (~48 KB)
// inside L1/L2 while amortizing that dispatch to noise.
const batchCap = 1024

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
