package graph

import (
	"cmp"
	"slices"

	"udbench/internal/txn"
)

// CSRBuilds counts the CSRs built since NewStore.
func (s *Store) CSRBuilds() uint64 { return s.csrBuilds.Load() }

// KHopMaps is KHop's reference walk over the adjacency maps.
func (s *Store) KHopMaps(tx *txn.Tx, starts []VID, k int, dir Dir, label string) []VID {
	result, _ := s.khopMaps(tx, starts, k, dir, label)
	return result
}

// RentCSR charges the account of (label, dir) at Version() with a
// build's cost, so the next multi-hop walk by an admitted reader buys.
func (s *Store) RentCSR(label string, dir Dir) {
	_, e := s.csrFor(nil, csrKey{label, dir}, false)
	e.visits.Add(int64(s.Len()))
}

// Degree is the number of edges Neighbors returns.
func (s *Store) Degree(tx *txn.Tx, v VID, dir Dir, label string) int {
	return len(s.Neighbors(tx, v, dir, label))
}

// Neighbors returns the edges incident to v in direction dir with the
// given label ("" for any label), as visible to tx, sorted by edge id.
func (s *Store) Neighbors(tx *txn.Tx, v VID, dir Dir, label string) []Edge {
	var out []Edge
	s.mu.RLock()
	s.eachList(v, dir, label, func(cs []*txn.Chain[*Edge], _ bool) {
		for _, c := range cs {
			if e, ok := c.Visible(tx); ok {
				out = append(out, *e)
			}
		}
	})
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.ID, b.ID) })
	// A self-loop is in both of v's lists when dir is Both.
	return slices.CompactFunc(out, func(a, b Edge) bool { return a.ID == b.ID })
}
