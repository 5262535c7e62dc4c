package graph

import "udbench/internal/txn"

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
