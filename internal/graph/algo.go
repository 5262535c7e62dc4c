package graph

import (
	"sort"

	"udbench/internal/txn"
)

// Analytics used by the benchmark's social-network workloads beyond
// plain traversal: connected components, triangle counting and common
// neighbours. All treat the graph as undirected over one edge label
// ("" = all labels) and read under the given transaction snapshot.

// ConnectedComponents returns the vertex sets of the connected
// components over edges with the given label, largest first. Vertices
// inside a component are sorted.
func (s *Store) ConnectedComponents(tx *txn.Tx, label string) [][]VID {
	visited := map[VID]bool{}
	var comps [][]VID
	s.Vertices(tx, func(v Vertex) bool {
		if visited[v.ID] {
			return true
		}
		// BFS flood fill.
		comp := []VID{v.ID}
		visited[v.ID] = true
		frontier := []VID{v.ID}
		for len(frontier) > 0 {
			var next []VID
			for _, cur := range frontier {
				for _, e := range s.Neighbors(tx, cur, Both, label) {
					nb := e.To
					if nb == cur {
						nb = e.From
					}
					if !visited[nb] {
						visited[nb] = true
						comp = append(comp, nb)
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
		return true
	})
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// TriangleCount returns the number of distinct triangles over edges
// with the given label, treating edges as undirected and ignoring
// duplicates and self-loops.
func (s *Store) TriangleCount(tx *txn.Tx, label string) int {
	adj := s.undirectedAdjacency(tx, label)
	// For each vertex, count edges among its higher-ordered neighbours.
	count := 0
	for v, nbs := range adj {
		for _, a := range nbs {
			if a <= v {
				continue
			}
			for _, b := range nbs {
				if b <= a {
					continue
				}
				// Is a-b an edge?
				if containsVID(adj[a], b) {
					count++
				}
			}
		}
	}
	return count
}

// CommonNeighbors returns the sorted vertices adjacent to both a and b
// over edges with the given label (the basis of friend-of-friend
// recommendation scores).
func (s *Store) CommonNeighbors(tx *txn.Tx, a, b VID, label string) []VID {
	na := s.neighborSet(tx, a, label)
	nb := s.neighborSet(tx, b, label)
	var out []VID
	for v := range na {
		if nb[v] && v != a && v != b {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Store) neighborSet(tx *txn.Tx, v VID, label string) map[VID]bool {
	set := map[VID]bool{}
	for _, e := range s.Neighbors(tx, v, Both, label) {
		nb := e.To
		if nb == v {
			nb = e.From
		}
		set[nb] = true
	}
	return set
}

// undirectedAdjacency snapshots the live graph as sorted, deduplicated
// undirected adjacency lists.
func (s *Store) undirectedAdjacency(tx *txn.Tx, label string) map[VID][]VID {
	adj := map[VID]map[VID]bool{}
	add := func(a, b VID) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = map[VID]bool{}
		}
		adj[a][b] = true
	}
	s.Edges(tx, label, func(e Edge) bool {
		add(e.From, e.To)
		add(e.To, e.From)
		return true
	})
	out := make(map[VID][]VID, len(adj))
	for v, set := range adj {
		lst := make([]VID, 0, len(set))
		for nb := range set {
			lst = append(lst, nb)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		out[v] = lst
	}
	return out
}

func containsVID(sorted []VID, v VID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}
