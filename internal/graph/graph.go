// Package graph implements the property-graph data model of the UDBMS
// benchmark: labeled vertices and edges with mmvalue properties,
// adjacency indexes, neighbour lookups, and k-hop traversal.
//
// In the Figure-1 dataset this store holds the social "knows" network
// between customers and the "purchased" edges from customers to
// products.
//
// Concurrency: all five stores are built on the record layer, the graph
// on two txn.Records: the vertices and the edges. Every
// stored version carries its record's identity (a vertex's label, an
// edge's label and endpoints), so a re-add under another vertex label
// is versioned like any write. The adjacency lists are the one
// structure of the graph's own: per vertex and label they hold the
// incident edges' version chains, under a store-level RWMutex, and a
// reader reaches an edge from them with one lock-free Visible (Store
// states their invariants). Edges(tx, "") scans the edge records in id
// order; a label's scan walks that label's out-lists in no particular
// order.
//
// KHop and EdgeEnds read a CSR per (label, direction) at one Version(),
// shared under the join cache's gates (txn.Certifies, txn.Shares); other
// readers walk the maps or scan Edges, the reference. An EdgeEnds, whose
// scan would cost as much as a build, buys; so does the next multi-hop
// map walk once walks have cost as much, one-hop walks only read it.
package graph

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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

// adjacency maps a vertex and a label to its incident edges' chains.
type adjacency map[VID]map[string][]*txn.Chain[*Edge]

// Store is a transactional property graph: the vertex records under the
// lock-resource prefix name+"/v/", the edge records under name+"/e/",
// and the adjacency lists out[v][label] and in[v][label] of edge
// chains. An edge version is an immutable *Edge, so a walk reads the
// endpoints through a pointer instead of copying the edge out. An edge
// id keeps its label and endpoints while its record exists: AddEdge
// with another triple fails until Compact has removed the dead record,
// and ApplyEdge, for replay, replaces the record at once. Four
// invariants hold:
//
//   - Adjacency: a chain is in the lists iff it holds a version. A fresh
//     insert (an empty chain) links it; the insert's abort unlinks it
//     once the chain is empty again, so a retry, which finds the empty
//     chain Records keeps, links it exactly once.
//   - Compaction: Compact drops a dead edge from both lists before
//     Records.Compact removes its record, so no list entry outlives its
//     chain.
//   - Version() is vertices.Version() + edges.Version(): committed
//     writes, each counted before it is stamped visible. The lists change
//     only for chains no other reader sees a version of (an uncommitted
//     insert, its abort, a dead record), so they move nothing.
//   - Len() is edges.Len(), every edge record not yet compacted: the
//     CSR rent threshold.
type Store struct {
	name     string
	vertices *txn.Records[Vertex]
	edges    *txn.Records[*Edge]

	mu      sync.RWMutex // guards out and in
	out, in adjacency

	csrMu     sync.Mutex // guards csrs
	csrs      map[csrKey]*csrEntry
	csrBuilds atomic.Uint64
}

// NewStore creates an empty graph named name on mgr.
func NewStore(name string, mgr *txn.Manager) *Store {
	return &Store{
		name:     name,
		vertices: txn.NewRecords[Vertex](mgr, name+"/v/"),
		edges:    txn.NewRecords[*Edge](mgr, name+"/e/"),
		out:      make(adjacency),
		in:       make(adjacency),
		csrs:     make(map[csrKey]*csrEntry),
	}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager.
func (s *Store) Manager() *txn.Manager { return s.edges.Manager() }

// Version counts committed writes (Store).
func (s *Store) Version() uint64 { return s.vertices.Version() + s.edges.Version() }

// Len is an O(1) size hint for a scan over Edges: the edge records.
func (s *Store) Len() int { return s.edges.Len() }

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
	return s.vertices.Auto(tx, func(tx *txn.Tx) error {
		c, err := s.vertices.Lock(tx, string(id))
		if err != nil {
			return err
		}
		if _, exists := c.Current(tx); exists && !upsert {
			return fmt.Errorf("graph %s: duplicate vertex %q", s.name, id)
		}
		s.vertices.Stage(tx, c, Vertex{ID: id, Label: label, Props: props.Clone()}, false)
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
// duplicate-id check, so recovery can reapply a logged add whether or
// not a snapshot already holds the edge. A record of another label or
// endpoints, live or removed, is replaced: replay does not compact, so
// an id the live store reused after a Compact comes back here, and so
// does every reused id when a log is replayed twice. The old record
// goes from the lists and the records at once, which only replay may
// do: no other transaction can still read it, and if tx aborts it stays
// gone (replay then fails). The endpoint vertices must exist, which
// replay guarantees because their ops precede the edge op in the log.
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
	return s.edges.Auto(tx, func(tx *txn.Tx) error {
		for _, v := range [2]VID{from, to} {
			if _, ok := s.GetVertex(tx, v); !ok {
				return fmt.Errorf("graph %s: edge %q: no vertex %q", s.name, id, v)
			}
		}
		c, err := s.edges.Lock(tx, string(id))
		if err != nil {
			return err
		}
		e := Edge{ID: id, Label: label, From: from, To: to}
		cur, live := c.Current(tx)
		same := cur == nil || cur.Label == label && cur.From == from && cur.To == to
		if !same && upsert { // replay replaces the record (ApplyEdge)
			s.mu.Lock()
			s.unlink(c, *cur)
			s.mu.Unlock()
			s.edges.Remove(string(id))
			if c, err = s.edges.Lock(tx, string(id)); err != nil {
				return err
			}
			cur = nil
		}
		switch {
		case cur == nil: // an empty chain: link it, and unlink it if the insert aborts
			s.mu.Lock()
			s.link(c, e)
			s.mu.Unlock()
			// Registered before Stage, so on abort it runs after the
			// version has been rolled back.
			tx.OnUndo(func() {
				if c.Empty() {
					s.mu.Lock()
					s.unlink(c, e)
					s.mu.Unlock()
				}
			})
		case live && !upsert:
			return fmt.Errorf("graph %s: duplicate edge %q", s.name, id)
		case !same:
			return fmt.Errorf("graph %s: edge %q is %s %s->%s until compacted, not %s %s->%s",
				s.name, id, cur.Label, cur.From, cur.To, label, from, to)
		}
		e.Props = props.Clone()
		s.edges.Stage(tx, c, &e, false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphEdge).String(string(id)).String(label).
				String(string(from)).String(string(to)).
				Bytes(mmvalue.AppendBinary(nil, props)).Build())
		}
		return nil
	})
}

// link lists c under e's endpoints; the caller holds s.mu.
func (s *Store) link(c *txn.Chain[*Edge], e Edge) {
	s.out.add(e.From, e.Label, c)
	s.in.add(e.To, e.Label, c)
}

func (a adjacency) add(v VID, label string, c *txn.Chain[*Edge]) {
	if a[v] == nil {
		a[v] = make(map[string][]*txn.Chain[*Edge])
	}
	a[v][label] = append(a[v][label], c)
}

// unlink removes c from e's endpoints' lists; the caller holds s.mu.
func (s *Store) unlink(c *txn.Chain[*Edge], e Edge) {
	is := func(x *txn.Chain[*Edge]) bool { return x == c }
	s.out[e.From][e.Label] = slices.DeleteFunc(s.out[e.From][e.Label], is)
	s.in[e.To][e.Label] = slices.DeleteFunc(s.in[e.To][e.Label], is)
}

func normalizeProps(props mmvalue.Value) mmvalue.Value {
	if props.IsNull() {
		return mmvalue.FromObject(mmvalue.NewObject())
	}
	return props
}

// GetVertex returns the vertex as visible to tx.
func (s *Store) GetVertex(tx *txn.Tx, id VID) (Vertex, bool) {
	return s.vertices.Get(tx, string(id))
}

// GetEdge returns the edge as visible to tx.
func (s *Store) GetEdge(tx *txn.Tx, id EID) (Edge, bool) {
	if e, ok := s.edges.Get(tx, string(id)); ok {
		return *e, true
	}
	return Edge{}, false
}

// SetVertexProps replaces the property object of a vertex.
func (s *Store) SetVertexProps(tx *txn.Tx, id VID, update func(props mmvalue.Value) (mmvalue.Value, error)) error {
	return s.vertices.Auto(tx, func(tx *txn.Tx) error {
		c, cur, live, err := s.vertices.LockLive(tx, string(id))
		if err != nil {
			return err
		}
		if !live {
			return fmt.Errorf("graph %s: no vertex %q", s.name, id)
		}
		next, err := update(cur.Props.Clone())
		if err != nil {
			return err
		}
		if next.Kind() != mmvalue.KindObject {
			return fmt.Errorf("graph %s: vertex props must be an object", s.name)
		}
		cur.Props = next
		s.vertices.Stage(tx, c, cur, false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpGraphVertexProps).String(string(id)).
				Bytes(mmvalue.AppendBinary(nil, next)).Build())
		}
		return nil
	})
}

// RemoveEdge tombstones an edge.
func (s *Store) RemoveEdge(tx *txn.Tx, id EID) error {
	return s.edges.Auto(tx, func(tx *txn.Tx) error {
		c, ok, err := s.edges.LockExisting(tx, string(id))
		if err != nil || !ok {
			return err
		}
		s.tombstone(tx, c)
		return nil
	})
}

// tombstone stages the removal of c's edge, which tx has locked. The
// tombstone keeps the edge's identity for Compact and for a re-add; an
// empty chain (an aborted insert) has no edge to remove.
func (s *Store) tombstone(tx *txn.Tx, c *txn.Chain[*Edge]) {
	cur, _ := c.Current(tx)
	if cur == nil {
		return
	}
	e := *cur
	e.Props = mmvalue.Null
	s.edges.Stage(tx, c, &e, true)
	if tx.Logging() {
		tx.LogOp(wal.NewOp(wal.OpGraphRemoveEdge).String(string(e.ID)).Build())
	}
}

// RemoveVertex tombstones a vertex and all incident edges.
func (s *Store) RemoveVertex(tx *txn.Tx, id VID) error {
	return s.vertices.Auto(tx, func(tx *txn.Tx) error {
		c, ok, err := s.vertices.LockExisting(tx, string(id))
		if err != nil || !ok {
			return err
		}
		var incident []*txn.Chain[*Edge]
		s.mu.RLock()
		s.eachList(id, Both, "", func(cs []*txn.Chain[*Edge], _ bool) { incident = append(incident, cs...) })
		s.mu.RUnlock()
		for _, ec := range incident {
			if err := tx.LockExclusiveKey(ec.Res); err != nil {
				return err
			}
			s.tombstone(tx, ec)
		}
		s.vertices.Stage(tx, c, Vertex{ID: id}, true)
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

// eachList calls fn with each of v's adjacency lists that dir and label
// ("" for any label) select; in tells fn the list holds v's in-edges.
// The caller holds s.mu.
func (s *Store) eachList(v VID, dir Dir, label string, fn func(cs []*txn.Chain[*Edge], in bool)) {
	side := func(byLabel map[string][]*txn.Chain[*Edge], in bool) {
		if label != "" {
			fn(byLabel[label], in)
			return
		}
		for _, cs := range byLabel {
			fn(cs, in)
		}
	}
	if dir != In {
		side(s.out[v], false)
	}
	if dir != Out {
		side(s.in[v], true)
	}
}

// KHop returns the vertices at distance 1..k from the start set over
// edges with the given label ("" for any label), in direction dir, as
// visible to tx, excluding the starts themselves. Results are sorted.
// A reader the CSR gates admit walks the CSR of (label, dir), any other
// the maps (package comment).
func (s *Store) KHop(tx *txn.Tx, starts []VID, k int, dir Dir, label string) []VID {
	c, e := s.csrFor(tx, csrKey{label, dir}, k > 1)
	if c != nil {
		return c.walk(starts, k)
	}
	result, visits := s.khopMaps(tx, starts, k, dir, label)
	if k > 1 {
		e.visits.Add(int64(visits))
	}
	return result
}

// khopMaps is KHop over the adjacency maps, and the number of edges it
// visited. It keeps one visited set for the whole start set and takes
// the store's read lock once per expanded vertex, so a writer waits for
// at most one adjacency list; it builds no Edge and copies no props.
func (s *Store) khopMaps(tx *txn.Tx, starts []VID, k int, dir Dir, label string) ([]VID, int) {
	visited := make(map[VID]bool, len(starts))
	for _, v := range starts {
		visited[v] = true
	}
	frontier, result, visits := starts, []VID(nil), 0
	visit := func(cs []*txn.Chain[*Edge], in bool) {
		visits += len(cs)
		for _, c := range cs {
			e, ok := c.Visible(tx)
			if !ok {
				continue
			}
			nb := e.To
			if in {
				nb = e.From
			}
			if !visited[nb] {
				visited[nb] = true
				result = append(result, nb)
			}
		}
	}
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		n := len(result)
		for _, v := range frontier {
			s.mu.RLock()
			s.eachList(v, dir, label, visit)
			s.mu.RUnlock()
		}
		frontier = result[n:]
	}
	slices.Sort(result)
	return result, visits
}

// csrKey names a CSR: a label ("" for every label) and a direction.
type csrKey struct {
	label string
	dir   Dir
}

// csrEntry is a key's account at version ver: the edge visits charged,
// and the CSR once bought (later buyers wait in once.Do, holding no lock).
type csrEntry struct {
	ver    uint64
	visits atomic.Int64
	once   sync.Once
	adj    atomic.Pointer[csr]
}

// csr is one key's visible edges, certified at snapshot snap, in
// compressed sparse row form over int32 vertex codes in VID order: the
// neighbours of code c, one per edge, are nbr[off[c]:off[c+1]].
type csr struct {
	snap     txn.TS
	ids      []VID
	code     map[VID]int32
	off, nbr []int32
}

// EdgeEnds calls fn with each end of the edges of label ("" for every
// label) visible to tx, a self-loop's two included, in VID order, off
// the label's Both CSR, which a reader the CSR gates admit buys if need
// be. For any other reader it calls fn for none and reports false.
func (s *Store) EdgeEnds(tx *txn.Tx, label string, fn func(v VID)) bool {
	key := csrKey{label, Both}
	_, e := s.csrFor(tx, key, false)
	e.visits.Add(int64(s.Len())) // the scan it saves pays for the CSR
	c, _ := s.csrFor(tx, key, true)
	if c == nil {
		return false
	}
	for i, v := range c.ids {
		for range c.off[i+1] - c.off[i] {
			fn(v)
		}
	}
	return true
}

// csrFor returns key's account at Version() (opening it if the one held
// is older) and its CSR if tx may read it, bought first when buy is set
// and the account holds Len() edge visits; a nil CSR sends the reader to
// the maps or to Edges. A reader whose version read is stale gets the
// newer account.
func (s *Store) csrFor(tx *txn.Tx, key csrKey, buy bool) (*csr, *csrEntry) {
	ver := s.Version()
	s.csrMu.Lock()
	e := s.csrs[key]
	if e == nil || e.ver < ver {
		e = &csrEntry{ver: ver}
		s.csrs[key] = e
	}
	s.csrMu.Unlock()
	if buy && e.adj.Load() == nil && e.visits.Load() >= int64(s.Len()) {
		btx := tx
		if btx == nil {
			btx = s.Manager().Begin()
			defer btx.Abort()
		}
		if s.Manager().Certifies(btx) {
			e.once.Do(func() {
				c := s.buildCSR(btx, key)
				s.csrBuilds.Add(1)
				if s.Version() == e.ver {
					e.adj.Store(c)
				}
			})
		}
	}
	if c := e.adj.Load(); c != nil && txn.Shares(tx, c.snap) {
		return c, e
	}
	return nil, e
}

// buildCSR scans the edges of key's label visible to tx into key's CSR,
// each edge in row from for Out, in row to for In, and in both for Both,
// as the map walk reads the out and in lists.
func (s *Store) buildCSR(tx *txn.Tx, key csrKey) *csr {
	c := &csr{snap: tx.BeginTS(), code: make(map[VID]int32)}
	var ends []VID // from, to of each edge
	s.EachEdge(tx, key.label, func(e *Edge) bool { ends = append(ends, e.From, e.To); return true })
	for _, v := range ends {
		c.code[v] = 0
	}
	c.ids = slices.Sorted(maps.Keys(c.code))
	for i, v := range c.ids {
		c.code[v] = int32(i)
	}
	var rows [][2]int32 // (row, neighbour)
	for i := 0; i < len(ends); i += 2 {
		from, to := c.code[ends[i]], c.code[ends[i+1]]
		if key.dir != In {
			rows = append(rows, [2]int32{from, to})
		}
		if key.dir != Out {
			rows = append(rows, [2]int32{to, from})
		}
	}
	slices.SortFunc(rows, func(a, b [2]int32) int { return int(a[0] - b[0]) })
	c.off, c.nbr = make([]int32, len(c.ids)+1), make([]int32, len(rows))
	for i, r := range rows {
		c.off[r[0]+1]++
		c.nbr[i] = r[1]
	}
	for i := range c.ids {
		c.off[i+1] += c.off[i]
	}
	return c
}

// walk is KHop over the CSR: int32 frontiers and a visited bitmap that,
// once the starts are cleared from it, lists the result in VID order.
func (c *csr) walk(starts []VID, k int) []VID {
	seen := make([]uint64, (len(c.ids)+63)/64)
	var reached []int32 // the coded starts, then every vertex reached
	mark := func(v int32) {
		if seen[v>>6]&(1<<(v&63)) == 0 {
			seen[v>>6] |= 1 << (v & 63)
			reached = append(reached, v)
		}
	}
	for _, v := range starts {
		if x, ok := c.code[v]; ok {
			mark(x)
		}
	}
	origin := len(reached)
	for depth, lo := 0, 0; depth < k && lo < len(reached); depth++ {
		hi := len(reached)
		for _, v := range reached[lo:hi] {
			for _, nb := range c.nbr[c.off[v]:c.off[v+1]] {
				mark(nb)
			}
		}
		lo = hi
	}
	if len(reached) == origin {
		return nil
	}
	for _, x := range reached[:origin] {
		seen[x>>6] &^= 1 << (x & 63)
	}
	out := make([]VID, 0, len(reached)-origin)
	for w, b := range seen {
		for ; b != 0; b &= b - 1 {
			out = append(out, c.ids[w<<6+bits.TrailingZeros64(b)])
		}
	}
	return out
}

// Vertices calls fn for every live vertex visible to tx in id order,
// until fn returns false. Like ordmap.Ascend it holds the vertex
// records' structural read lock throughout, so fn must not add or look
// up vertices.
func (s *Store) Vertices(tx *txn.Tx, fn func(v Vertex) bool) {
	s.vertices.Scan(tx, "", "", func(_ string, v Vertex) bool { return fn(v) })
}

// Edges calls fn for every live edge with the given label ("" for every
// label) visible to tx, until fn returns false: every label's in id
// order, one label's in no particular order. It holds a structural read
// lock throughout, the edge records' (like ordmap.Ascend) or, for one
// label, the store's while it walks that label's out-lists, so fn must
// not call back into the store; gathering the edges first to release
// the lock would cost more than the walk itself.
func (s *Store) Edges(tx *txn.Tx, label string, fn func(e Edge) bool) {
	s.EachEdge(tx, label, func(e *Edge) bool { return fn(*e) })
}

// EachEdge is Edges handing fn the store's own version of each edge,
// with no copy: fn must neither modify nor keep it.
func (s *Store) EachEdge(tx *txn.Tx, label string, fn func(e *Edge) bool) {
	if label == "" {
		s.edges.Scan(tx, "", "", func(_ string, e *Edge) bool { return fn(e) })
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, byLabel := range s.out {
		for _, c := range byLabel[label] {
			if e, ok := c.Visible(tx); ok && !fn(e) {
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
	s.Edges(tx, "", func(Edge) bool { n++; return true })
	return n
}

// Compact garbage-collects vertex and edge versions shadowed below
// horizon and removes dead records, a dead edge from both adjacency
// lists first (Store). It returns the number of versions dropped and,
// like every store's Compact, must not run concurrently with
// transactions that might read below horizon.
func (s *Store) Compact(horizon txn.TS) int {
	dead := func(c *txn.Chain[*Edge]) bool { return c.Dead(horizon) }
	s.mu.Lock()
	for _, lists := range [2]adjacency{s.out, s.in} {
		for _, byLabel := range lists {
			for label, cs := range byLabel {
				byLabel[label] = slices.DeleteFunc(cs, dead)
			}
		}
	}
	s.mu.Unlock()
	return s.vertices.Compact(horizon) + s.edges.Compact(horizon)
}
