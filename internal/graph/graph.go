// Package graph implements the property-graph data model of the UDBMS
// benchmark: labeled vertices and edges with mmvalue properties,
// adjacency indexes, k-hop traversal, shortest paths, simple pattern
// matching and PageRank.
//
// In the Figure-1 dataset this store holds the social "knows" network
// between customers and the "purchased" edges from customers to
// products.
//
// Concurrency: vertex and edge property records are multi-versioned
// like every UDBench store, through the shared chain helpers of the
// record layer (txn.Chain's Stage, Visible, Current, Collect and the
// manager's Auto wrapper). Unlike the other four stores the records
// are hash-keyed rather than a txn.Records, because point lookups
// dominate traversals. The adjacency structure itself is guarded by a
// store-level RWMutex and registers undo hooks so that structural
// changes are transactional too.
package graph

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// VID identifies a vertex; EID identifies an edge.
type (
	VID string
	EID string
)

// Vertex is a labeled property vertex.
type Vertex struct {
	ID    VID
	Label string
	Props mmvalue.Value // object
}

// Edge is a directed labeled property edge.
type Edge struct {
	ID    EID
	Label string
	From  VID
	To    VID
	Props mmvalue.Value // object
}

// Store is a transactional property graph.
type Store struct {
	name string
	mgr  *txn.Manager

	mu       sync.RWMutex
	vertices map[VID]*vertexRec
	edges    map[EID]*edgeRec
	// out[v][label] and in[v][label] list edge ids. Structure entries
	// exist only for committed edges plus uncommitted ones owned by an
	// in-flight transaction; visibility is re-checked on read.
	out map[VID]map[string][]EID
	in  map[VID]map[string][]EID
}

type vertexRec struct {
	label string
	chain txn.Chain[mmvalue.Value] // property versions; tombstone = vertex deleted
}

type edgeRec struct {
	label    string
	from, to VID
	chain    txn.Chain[mmvalue.Value]
}

// NewStore creates an empty graph named name on mgr.
func NewStore(name string, mgr *txn.Manager) *Store {
	return &Store{
		name:     name,
		mgr:      mgr,
		vertices: make(map[VID]*vertexRec),
		edges:    make(map[EID]*edgeRec),
		out:      make(map[VID]map[string][]EID),
		in:       make(map[VID]map[string][]EID),
	}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager.
func (s *Store) Manager() *txn.Manager { return s.mgr }

func (s *Store) vResource(id VID) string { return s.name + "/v/" + string(id) }
func (s *Store) eResource(id EID) string { return s.name + "/e/" + string(id) }

// vLockKey returns the interned lock key of a vertex, building a fresh
// key only when the record does not exist yet (first insert, or lock on
// a missing id).
func (s *Store) vLockKey(id VID) txn.ResourceKey {
	s.mu.RLock()
	rec := s.vertices[id]
	s.mu.RUnlock()
	if rec != nil {
		return rec.chain.Res
	}
	return txn.NewResourceKey(s.vResource(id))
}

// eLockKey is vLockKey for edges.
func (s *Store) eLockKey(id EID) txn.ResourceKey {
	s.mu.RLock()
	rec := s.edges[id]
	s.mu.RUnlock()
	if rec != nil {
		return rec.chain.Res
	}
	return txn.NewResourceKey(s.eResource(id))
}

// getOrCreateVertex returns the vertex record, creating it (with its
// interned lock key) on first use. The caller serializes on the
// record's lock before writing the chain.
func (s *Store) getOrCreateVertex(id VID, label string) *vertexRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.vertices[id]
	if rec == nil {
		rec = &vertexRec{label: label}
		rec.chain.Res = txn.NewResourceKey(s.vResource(id))
		s.vertices[id] = rec
	}
	return rec
}

// AddVertex inserts a vertex. Props must be an object (Null is treated
// as an empty object). Duplicate ids fail.
func (s *Store) AddVertex(tx *txn.Tx, id VID, label string, props mmvalue.Value) error {
	return s.putVertex(tx, id, label, props, false)
}

// ApplyVertex is the replay path: it upserts the vertex without the
// duplicate-id check, so recovery can reapply a logged add whether or
// not a snapshot already holds the vertex.
func (s *Store) ApplyVertex(tx *txn.Tx, id VID, label string, props mmvalue.Value) error {
	return s.putVertex(tx, id, label, props, true)
}

func (s *Store) putVertex(tx *txn.Tx, id VID, label string, props mmvalue.Value, upsert bool) error {
	if id == "" {
		return fmt.Errorf("graph %s: empty vertex id", s.name)
	}
	props = normalizeProps(props)
	if props.Kind() != mmvalue.KindObject {
		return fmt.Errorf("graph %s: vertex props must be an object", s.name)
	}
	return s.mgr.Auto(tx, func(tx *txn.Tx) error {
		rec := s.getOrCreateVertex(id, label)
		if err := tx.LockExclusiveKey(rec.chain.Res); err != nil {
			return err
		}
		if !upsert {
			if _, exists := rec.chain.Current(tx); exists {
				return fmt.Errorf("graph %s: duplicate vertex %q", s.name, id)
			}
		}
		s.mu.Lock()
		rec.label = label
		s.mu.Unlock()
		rec.chain.Stage(tx, props.Clone(), false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphVertex).String(string(id)).String(label).
				Bytes(mmvalue.AppendBinary(nil, props)).Build())
		}
		return nil
	})
}

// AddEdge inserts a directed edge between existing vertices.
func (s *Store) AddEdge(tx *txn.Tx, id EID, label string, from, to VID, props mmvalue.Value) error {
	return s.putEdge(tx, id, label, from, to, props, false)
}

// ApplyEdge is the replay path: it upserts the edge without the
// duplicate-id check (relinking if the endpoints changed), so recovery
// can reapply a logged add whether or not a snapshot already holds the
// edge. The endpoint vertices must exist, which replay guarantees
// because their ops precede the edge op in the log.
func (s *Store) ApplyEdge(tx *txn.Tx, id EID, label string, from, to VID, props mmvalue.Value) error {
	return s.putEdge(tx, id, label, from, to, props, true)
}

func (s *Store) putEdge(tx *txn.Tx, id EID, label string, from, to VID, props mmvalue.Value, upsert bool) error {
	if id == "" {
		return fmt.Errorf("graph %s: empty edge id", s.name)
	}
	props = normalizeProps(props)
	if props.Kind() != mmvalue.KindObject {
		return fmt.Errorf("graph %s: edge props must be an object", s.name)
	}
	return s.mgr.Auto(tx, func(tx *txn.Tx) error {
		if err := tx.LockExclusiveKey(s.eLockKey(id)); err != nil {
			return err
		}
		if _, ok := s.GetVertex(tx, from); !ok {
			return fmt.Errorf("graph %s: edge %q: no vertex %q", s.name, id, from)
		}
		if _, ok := s.GetVertex(tx, to); !ok {
			return fmt.Errorf("graph %s: edge %q: no vertex %q", s.name, id, to)
		}
		s.mu.Lock()
		rec := s.edges[id]
		fresh := rec == nil
		if fresh {
			rec = &edgeRec{label: label, from: from, to: to}
			rec.chain.Res = txn.NewResourceKey(s.eResource(id))
			s.edges[id] = rec
			s.link(id, label, from, to)
		}
		s.mu.Unlock()
		if !fresh {
			if !upsert {
				if _, exists := rec.chain.Current(tx); exists {
					return fmt.Errorf("graph %s: duplicate edge %q", s.name, id)
				}
			}
			if rec.from != from || rec.to != to || rec.label != label {
				// Reusing an edge id with different endpoints: relink
				// under the store lock.
				s.mu.Lock()
				s.unlink(id, rec.label, rec.from, rec.to)
				rec.label, rec.from, rec.to = label, from, to
				s.link(id, label, from, to)
				s.mu.Unlock()
			}
		} else {
			// Registered before Stage, so on abort it runs after the
			// version has been rolled back.
			tx.OnUndo(func() {
				if rec.chain.Empty() {
					s.mu.Lock()
					s.unlink(id, label, from, to)
					delete(s.edges, id)
					s.mu.Unlock()
				}
			})
		}
		rec.chain.Stage(tx, props.Clone(), false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphEdge).String(string(id)).String(label).
				String(string(from)).String(string(to)).
				Bytes(mmvalue.AppendBinary(nil, props)).Build())
		}
		return nil
	})
}

func (s *Store) link(id EID, label string, from, to VID) {
	if s.out[from] == nil {
		s.out[from] = make(map[string][]EID)
	}
	s.out[from][label] = append(s.out[from][label], id)
	if s.in[to] == nil {
		s.in[to] = make(map[string][]EID)
	}
	s.in[to][label] = append(s.in[to][label], id)
}

func (s *Store) unlink(id EID, label string, from, to VID) {
	removeEID := func(list []EID) []EID {
		for i, e := range list {
			if e == id {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	if m := s.out[from]; m != nil {
		m[label] = removeEID(m[label])
	}
	if m := s.in[to]; m != nil {
		m[label] = removeEID(m[label])
	}
}

func normalizeProps(props mmvalue.Value) mmvalue.Value {
	if props.IsNull() {
		return mmvalue.FromObject(mmvalue.NewObject())
	}
	return props
}

// GetVertex returns the vertex as visible to tx.
func (s *Store) GetVertex(tx *txn.Tx, id VID) (Vertex, bool) {
	s.mu.RLock()
	rec := s.vertices[id]
	s.mu.RUnlock()
	if rec == nil {
		return Vertex{}, false
	}
	props, ok := rec.chain.Visible(tx)
	if !ok {
		return Vertex{}, false
	}
	return Vertex{ID: id, Label: rec.label, Props: props}, true
}

// GetEdge returns the edge as visible to tx.
func (s *Store) GetEdge(tx *txn.Tx, id EID) (Edge, bool) {
	s.mu.RLock()
	rec := s.edges[id]
	s.mu.RUnlock()
	if rec == nil {
		return Edge{}, false
	}
	props, ok := rec.chain.Visible(tx)
	if !ok {
		return Edge{}, false
	}
	return Edge{ID: id, Label: rec.label, From: rec.from, To: rec.to, Props: props}, true
}

// SetVertexProps replaces the property object of a vertex.
func (s *Store) SetVertexProps(tx *txn.Tx, id VID, update func(props mmvalue.Value) (mmvalue.Value, error)) error {
	return s.mgr.Auto(tx, func(tx *txn.Tx) error {
		if err := tx.LockExclusiveKey(s.vLockKey(id)); err != nil {
			return err
		}
		s.mu.RLock()
		rec := s.vertices[id]
		s.mu.RUnlock()
		if rec == nil {
			return fmt.Errorf("graph %s: no vertex %q", s.name, id)
		}
		cur, live := rec.chain.Current(tx)
		if !live {
			return fmt.Errorf("graph %s: no vertex %q", s.name, id)
		}
		next, err := update(cur.Clone())
		if err != nil {
			return err
		}
		if next.Kind() != mmvalue.KindObject {
			return fmt.Errorf("graph %s: vertex props must be an object", s.name)
		}
		rec.chain.Stage(tx, next, false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphVertexProps).String(string(id)).
				Bytes(mmvalue.AppendBinary(nil, next)).Build())
		}
		return nil
	})
}

// RemoveEdge tombstones an edge.
func (s *Store) RemoveEdge(tx *txn.Tx, id EID) error {
	return s.mgr.Auto(tx, func(tx *txn.Tx) error {
		if err := tx.LockExclusiveKey(s.eLockKey(id)); err != nil {
			return err
		}
		s.mu.RLock()
		rec := s.edges[id]
		s.mu.RUnlock()
		if rec == nil {
			return nil
		}
		rec.chain.Stage(tx, mmvalue.Null, true)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphRemoveEdge).String(string(id)).Build())
		}
		return nil
	})
}

// RemoveVertex tombstones a vertex and all incident edges.
func (s *Store) RemoveVertex(tx *txn.Tx, id VID) error {
	return s.mgr.Auto(tx, func(tx *txn.Tx) error {
		if err := tx.LockExclusiveKey(s.vLockKey(id)); err != nil {
			return err
		}
		s.mu.RLock()
		rec := s.vertices[id]
		var incident []EID
		for _, byLabel := range [2]map[string][]EID{s.out[id], s.in[id]} {
			for _, eids := range byLabel {
				incident = append(incident, eids...)
			}
		}
		s.mu.RUnlock()
		if rec == nil {
			return nil
		}
		for _, eid := range incident {
			if err := s.RemoveEdge(tx, eid); err != nil {
				return err
			}
		}
		rec.chain.Stage(tx, mmvalue.Null, true)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphRemoveVertex).String(string(id)).Build())
		}
		return nil
	})
}

// Dir selects a traversal direction.
type Dir uint8

// Traversal directions.
const (
	Out Dir = iota
	In
	Both
)

// Neighbors returns the edges incident to v in direction dir with the
// given label ("" for any label), as visible to tx, sorted by edge id.
func (s *Store) Neighbors(tx *txn.Tx, v VID, dir Dir, label string) []Edge {
	s.mu.RLock()
	var candidates []EID
	appendFrom := func(byLabel map[string][]EID) {
		if byLabel == nil {
			return
		}
		if label != "" {
			candidates = append(candidates, byLabel[label]...)
			return
		}
		for _, eids := range byLabel {
			candidates = append(candidates, eids...)
		}
	}
	if dir == Out || dir == Both {
		appendFrom(s.out[v])
	}
	if dir == In || dir == Both {
		appendFrom(s.in[v])
	}
	s.mu.RUnlock()
	out := make([]Edge, 0, len(candidates))
	seen := make(map[EID]bool, len(candidates))
	for _, eid := range candidates {
		if seen[eid] {
			continue
		}
		seen[eid] = true
		if e, ok := s.GetEdge(tx, eid); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Degree returns the number of live incident edges.
func (s *Store) Degree(tx *txn.Tx, v VID, dir Dir, label string) int {
	return len(s.Neighbors(tx, v, dir, label))
}

// KHop returns the set of vertices reachable from start in exactly 1..k
// hops over edges with the given label (any direction per dir),
// excluding start itself. Results are sorted.
func (s *Store) KHop(tx *txn.Tx, start VID, k int, dir Dir, label string) []VID {
	visited := map[VID]bool{start: true}
	frontier := []VID{start}
	var result []VID
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		var next []VID
		for _, v := range frontier {
			for _, e := range s.Neighbors(tx, v, dir, label) {
				nb := e.To
				if nb == v {
					nb = e.From
				}
				if dir == Out {
					nb = e.To
				} else if dir == In {
					nb = e.From
				}
				if !visited[nb] {
					visited[nb] = true
					next = append(next, nb)
					result = append(result, nb)
				}
			}
		}
		frontier = next
	}
	sort.Slice(result, func(i, j int) bool { return result[i] < result[j] })
	return result
}

// ShortestPath returns the vertices on a minimal-hop path from a to b
// (inclusive), or false if unreachable. Edges are traversed in
// direction dir over the given label ("" = any).
func (s *Store) ShortestPath(tx *txn.Tx, a, b VID, dir Dir, label string) ([]VID, bool) {
	if a == b {
		return []VID{a}, true
	}
	prev := map[VID]VID{a: a}
	frontier := []VID{a}
	for len(frontier) > 0 {
		var next []VID
		for _, v := range frontier {
			for _, e := range s.Neighbors(tx, v, dir, label) {
				nb := e.To
				if dir == In {
					nb = e.From
				} else if dir == Both && nb == v {
					nb = e.From
				}
				if _, seen := prev[nb]; seen {
					continue
				}
				prev[nb] = v
				if nb == b {
					return rebuildPath(prev, a, b), true
				}
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return nil, false
}

func rebuildPath(prev map[VID]VID, a, b VID) []VID {
	var rev []VID
	for cur := b; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == a {
			break
		}
	}
	path := make([]VID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// WeightedShortestPath runs Dijkstra over the float property weightProp
// of edges (missing weights count as 1). It returns the path and total
// cost.
func (s *Store) WeightedShortestPath(tx *txn.Tx, a, b VID, dir Dir, label, weightProp string) ([]VID, float64, bool) {
	dist := map[VID]float64{a: 0}
	prev := map[VID]VID{a: a}
	pq := &vidHeap{{v: a, d: 0}}
	done := map[VID]bool{}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(vidDist)
		if done[item.v] {
			continue
		}
		done[item.v] = true
		if item.v == b {
			return rebuildPath(prev, a, b), item.d, true
		}
		for _, e := range s.Neighbors(tx, item.v, dir, label) {
			nb := e.To
			if dir == In {
				nb = e.From
			} else if dir == Both && nb == item.v {
				nb = e.From
			}
			w := 1.0
			if p, ok := e.Props.AsObject(); ok {
				if wv, ok := p.Get(weightProp); ok {
					if f, ok := wv.AsFloat(); ok {
						w = f
					}
				}
			}
			nd := item.d + w
			if cur, seen := dist[nb]; !seen || nd < cur {
				dist[nb] = nd
				prev[nb] = item.v
				heap.Push(pq, vidDist{v: nb, d: nd})
			}
		}
	}
	return nil, 0, false
}

type vidDist struct {
	v VID
	d float64
}

type vidHeap []vidDist

func (h vidHeap) Len() int           { return len(h) }
func (h vidHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h vidHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *vidHeap) Push(x any)        { *h = append(*h, x.(vidDist)) }
func (h *vidHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Vertices calls fn for every live vertex visible to tx in id order.
func (s *Store) Vertices(tx *txn.Tx, fn func(v Vertex) bool) {
	s.mu.RLock()
	ids := make([]VID, 0, len(s.vertices))
	for id := range s.vertices {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if v, ok := s.GetVertex(tx, id); ok {
			if !fn(v) {
				return
			}
		}
	}
}

// Edges calls fn for every live edge visible to tx in id order.
func (s *Store) Edges(tx *txn.Tx, fn func(e Edge) bool) {
	s.mu.RLock()
	ids := make([]EID, 0, len(s.edges))
	for id := range s.edges {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if e, ok := s.GetEdge(tx, id); ok {
			if !fn(e) {
				return
			}
		}
	}
}

// VertexCount returns the number of live vertices.
func (s *Store) VertexCount(tx *txn.Tx) int {
	n := 0
	s.Vertices(tx, func(Vertex) bool { n++; return true })
	return n
}

// EdgeCount returns the number of live edges.
func (s *Store) EdgeCount(tx *txn.Tx) int {
	n := 0
	s.Edges(tx, func(Edge) bool { n++; return true })
	return n
}

// Compact garbage-collects vertex and edge versions shadowed below
// horizon and unlinks dead records; a dead edge also leaves the
// adjacency lists. It returns the number of versions dropped and, like
// every store's Compact, must not run concurrently with transactions
// that might read below horizon.
func (s *Store) Compact(horizon txn.TS) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for id, rec := range s.edges {
		n, dead := rec.chain.Collect(horizon)
		dropped += n
		if dead {
			s.unlink(id, rec.label, rec.from, rec.to)
			delete(s.edges, id)
		}
	}
	for id, rec := range s.vertices {
		n, dead := rec.chain.Collect(horizon)
		dropped += n
		if dead {
			delete(s.vertices, id)
		}
	}
	return dropped
}

// PageRank computes PageRank over the live graph (out-edges, any
// label) with damping d for the given number of iterations. Returns a
// map from vertex to rank; ranks sum approximately to 1.
func (s *Store) PageRank(tx *txn.Tx, d float64, iters int) map[VID]float64 {
	var ids []VID
	s.Vertices(tx, func(v Vertex) bool { ids = append(ids, v.ID); return true })
	n := len(ids)
	if n == 0 {
		return nil
	}
	rank := make(map[VID]float64, n)
	for _, id := range ids {
		rank[id] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make(map[VID]float64, n)
		base := (1 - d) / float64(n)
		for _, id := range ids {
			next[id] = base
		}
		dangling := 0.0
		for _, id := range ids {
			outs := s.Neighbors(tx, id, Out, "")
			if len(outs) == 0 {
				dangling += rank[id]
				continue
			}
			share := rank[id] / float64(len(outs))
			for _, e := range outs {
				next[e.To] += d * share
			}
		}
		if dangling > 0 {
			spread := d * dangling / float64(n)
			for _, id := range ids {
				next[id] += spread
			}
		}
		rank = next
	}
	return rank
}

// MatchPattern finds all (src, dst) pairs connected by an edge with
// the given label where the src and dst vertices satisfy the provided
// predicates (nil matches everything).
func (s *Store) MatchPattern(tx *txn.Tx, label string, srcOK, dstOK func(Vertex) bool) [][2]Vertex {
	var out [][2]Vertex
	s.Edges(tx, func(e Edge) bool {
		if label != "" && e.Label != label {
			return true
		}
		src, ok := s.GetVertex(tx, e.From)
		if !ok || (srcOK != nil && !srcOK(src)) {
			return true
		}
		dst, ok := s.GetVertex(tx, e.To)
		if !ok || (dstOK != nil && !dstOK(dst)) {
			return true
		}
		out = append(out, [2]Vertex{src, dst})
		return true
	})
	return out
}
