// Package graph implements the property-graph data model of the UDBMS
// benchmark: labeled vertices and edges with mmvalue properties,
// adjacency indexes, neighbour and degree lookups, and k-hop traversal.
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
// changes are transactional too. Whole-graph edge scans (Edges) walk
// the out-adjacency lists of one label, or of all labels, under one
// read lock and visit edges in no particular order.
//
// Version counts committed writes like txn.Records.Version, bumped in
// the commit hook before the stamp, and edge relinks and their undo as
// they happen: those change what scans see before a commit.
//
// KHop walks a CSR per (label, direction) at one Version(), shared
// under the join cache's gates (txn.Certifies, txn.Shares); other
// readers walk the maps, the reference. Multi-hop map walks charge their
// edge visits to the key's account; the next one to find Len() there
// buys the CSR, later buyers wait for it, one-hop walks only read it.
package graph

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
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
	out     map[VID]map[string][]EID
	in      map[VID]map[string][]EID
	version atomic.Uint64                           // see Version
	bump    func(*txn.Chain[mmvalue.Value], uint64) // the chains' commit hook

	csrMu     sync.Mutex // guards csrs
	csrs      map[csrKey]*csrEntry
	csrBuilds atomic.Uint64
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
	s := &Store{
		name:     name,
		mgr:      mgr,
		vertices: make(map[VID]*vertexRec),
		edges:    make(map[EID]*edgeRec),
		out:      make(map[VID]map[string][]EID),
		in:       make(map[VID]map[string][]EID),
		csrs:     make(map[csrKey]*csrEntry),
	}
	s.bump = func(*txn.Chain[mmvalue.Value], uint64) { s.version.Add(1) }
	return s
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager.
func (s *Store) Manager() *txn.Manager { return s.mgr }

// Version counts committed writes and edge relinks (package comment).
func (s *Store) Version() uint64 { return s.version.Load() }

// Len is an O(1) size hint for a scan over Edges: the edge records.
func (s *Store) Len() int { s.mu.RLock(); defer s.mu.RUnlock(); return len(s.edges) }

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
		oldLabel := rec.label
		rec.label = label
		s.mu.Unlock()
		if oldLabel != label {
			// The label is not versioned: put the old one back if tx
			// aborts, as putEdge does for a relink.
			tx.OnUndo(func() {
				s.mu.Lock()
				rec.label = oldLabel
				s.mu.Unlock()
			})
		}
		rec.chain.Stage(tx, props.Clone(), false, s.bump)
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
				// Reusing an edge id with different endpoints or label:
				// relink, and put the old triple back if tx aborts.
				oldLabel, oldFrom, oldTo := rec.label, rec.from, rec.to
				s.relink(id, rec, label, from, to)
				tx.OnUndo(func() { s.relink(id, rec, oldLabel, oldFrom, oldTo) })
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
		rec.chain.Stage(tx, props.Clone(), false, s.bump)
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

// relink moves edge id's adjacency entries and record to a new label and
// endpoints under the store lock. The caller holds the edge's lock.
func (s *Store) relink(id EID, rec *edgeRec, label string, from, to VID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	s.unlink(id, rec.label, rec.from, rec.to)
	rec.label, rec.from, rec.to = label, from, to
	s.link(id, label, from, to)
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
	var label string
	if rec != nil {
		label = rec.label
	}
	s.mu.RUnlock()
	if rec == nil {
		return Vertex{}, false
	}
	props, ok := rec.chain.Visible(tx)
	if !ok {
		return Vertex{}, false
	}
	return Vertex{ID: id, Label: label, Props: props}, true
}

// GetEdge returns the edge as visible to tx.
func (s *Store) GetEdge(tx *txn.Tx, id EID) (Edge, bool) {
	s.mu.RLock()
	rec := s.edges[id]
	var e Edge
	if rec != nil {
		e = rec.edge(id)
	}
	s.mu.RUnlock()
	if rec == nil {
		return Edge{}, false
	}
	props, ok := rec.chain.Visible(tx)
	if !ok {
		return Edge{}, false
	}
	e.Props = props
	return e, true
}

// edge returns the record's identity fields; callers hold s.mu.
func (rec *edgeRec) edge(id EID) Edge {
	return Edge{ID: id, Label: rec.label, From: rec.from, To: rec.to}
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
		rec.chain.Stage(tx, next, false, s.bump)
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
		rec.chain.Stage(tx, mmvalue.Null, true, s.bump)
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
		rec.chain.Stage(tx, mmvalue.Null, true, s.bump)
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
	s.eachList(v, dir, label, func(eids []EID, _ bool) { candidates = append(candidates, eids...) })
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

// eachList calls fn with each of v's adjacency lists that dir and label
// ("" for any label) select; in tells fn the list holds v's in-edges.
// The caller holds s.mu.
func (s *Store) eachList(v VID, dir Dir, label string, fn func(eids []EID, in bool)) {
	side := func(byLabel map[string][]EID, in bool) {
		if label != "" {
			fn(byLabel[label], in)
			return
		}
		for _, eids := range byLabel {
			fn(eids, in)
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
	visit := func(eids []EID, in bool) {
		visits += len(eids)
		for _, id := range eids {
			rec := s.edges[id]
			nb := rec.to
			if in {
				nb = rec.from
			}
			if !visited[nb] {
				if _, ok := rec.chain.Visible(tx); ok {
					visited[nb] = true
					result = append(result, nb)
				}
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

// csrFor returns key's account at Version() (opening it if the one held
// is older) and its CSR if tx may read it, bought first when buy is set
// and the account holds Len() edge visits; a nil CSR sends the walk to
// the maps. A walker whose version read is stale gets the newer account.
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
			btx = s.mgr.Begin()
			defer btx.Abort()
		}
		if s.mgr.Certifies(btx) {
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
	s.Edges(tx, key.label, func(e Edge) bool { ends = append(ends, e.From, e.To); return true })
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

// Edges calls fn for every live edge with the given label ("" for every
// label) visible to tx, in no particular order, until fn returns false.
// Like ordmap.Ascend it holds the structural read lock throughout — here
// the store's, while it walks the out-adjacency lists — so fn must not
// call back into the store; gathering the edges first to release the
// lock would cost more than the walk itself.
func (s *Store) Edges(tx *txn.Tx, label string, fn func(e Edge) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	visit := func(eids []EID) bool {
		for _, id := range eids {
			rec := s.edges[id]
			if props, ok := rec.chain.Visible(tx); ok {
				e := rec.edge(id)
				e.Props = props
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, byLabel := range s.out {
		if label != "" {
			if !visit(byLabel[label]) {
				return
			}
			continue
		}
		for _, eids := range byLabel {
			if !visit(eids) {
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
