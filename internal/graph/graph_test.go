package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

func newTestGraph() *Store {
	return NewStore("g", txn.NewManager())
}

// buildSocial builds:  a -knows-> b -knows-> c -knows-> d,  a -knows-> c
// plus product purchases a -bought-> p1, c -bought-> p1.
func buildSocial(t testing.TB) *Store {
	t.Helper()
	g := newTestGraph()
	for _, v := range []VID{"a", "b", "c", "d"} {
		if err := g.AddVertex(nil, v, "customer", mmvalue.ObjectOf("name", string(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddVertex(nil, "p1", "product", mmvalue.ObjectOf("sku", "p1")); err != nil {
		t.Fatal(err)
	}
	edges := []struct {
		id       EID
		label    string
		from, to VID
	}{
		{"e1", "knows", "a", "b"},
		{"e2", "knows", "b", "c"},
		{"e3", "knows", "c", "d"},
		{"e4", "knows", "a", "c"},
		{"e5", "bought", "a", "p1"},
		{"e6", "bought", "c", "p1"},
	}
	for _, e := range edges {
		if err := g.AddEdge(nil, e.id, e.label, e.from, e.to, mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddAndGetVertexEdge(t *testing.T) {
	g := buildSocial(t)
	v, ok := g.GetVertex(nil, "a")
	if !ok || v.Label != "customer" {
		t.Fatalf("GetVertex = %+v, %v", v, ok)
	}
	if name, _ := v.Props.MustObject().Get("name"); !mmvalue.Equal(name, mmvalue.String("a")) {
		t.Error("vertex props wrong")
	}
	e, ok := g.GetEdge(nil, "e1")
	if !ok || e.From != "a" || e.To != "b" || e.Label != "knows" {
		t.Fatalf("GetEdge = %+v", e)
	}
	if _, ok := g.GetVertex(nil, "zz"); ok {
		t.Error("phantom vertex")
	}
	if _, ok := g.GetEdge(nil, "zz"); ok {
		t.Error("phantom edge")
	}
	if g.VertexCount(nil) != 5 || g.EdgeCount(nil) != 6 {
		t.Errorf("counts = %d/%d", g.VertexCount(nil), g.EdgeCount(nil))
	}
}

func TestAddValidation(t *testing.T) {
	g := newTestGraph()
	if err := g.AddVertex(nil, "", "l", mmvalue.Null); err == nil {
		t.Error("empty vertex id should fail")
	}
	if err := g.AddVertex(nil, "a", "l", mmvalue.Int(3)); err == nil {
		t.Error("non-object props should fail")
	}
	g.AddVertex(nil, "a", "l", mmvalue.Null)
	if err := g.AddVertex(nil, "a", "l", mmvalue.Null); err == nil {
		t.Error("duplicate vertex should fail")
	}
	if err := g.AddEdge(nil, "", "l", "a", "a", mmvalue.Null); err == nil {
		t.Error("empty edge id should fail")
	}
	if err := g.AddEdge(nil, "e", "l", "a", "missing", mmvalue.Null); err == nil {
		t.Error("edge to missing vertex should fail")
	}
	if err := g.AddEdge(nil, "e", "l", "missing", "a", mmvalue.Null); err == nil {
		t.Error("edge from missing vertex should fail")
	}
	g.AddEdge(nil, "e", "l", "a", "a", mmvalue.Null)
	if err := g.AddEdge(nil, "e", "l", "a", "a", mmvalue.Null); err == nil {
		t.Error("duplicate edge should fail")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := buildSocial(t)
	out := g.Neighbors(nil, "a", Out, "knows")
	if len(out) != 2 {
		t.Fatalf("a out-knows = %d", len(out))
	}
	if out[0].ID != "e1" || out[1].ID != "e4" {
		t.Errorf("neighbors not sorted: %v %v", out[0].ID, out[1].ID)
	}
	if d := g.Degree(nil, "c", In, "knows"); d != 2 {
		t.Errorf("c in-degree = %d", d)
	}
	if d := g.Degree(nil, "a", Both, ""); d != 3 {
		t.Errorf("a both any-label = %d", d)
	}
	if d := g.Degree(nil, "p1", In, "bought"); d != 2 {
		t.Errorf("p1 purchases = %d", d)
	}
	if d := g.Degree(nil, "zz", Out, ""); d != 0 {
		t.Errorf("missing vertex degree = %d", d)
	}
}

func TestKHop(t *testing.T) {
	g := buildSocial(t)
	hop1 := g.KHop(nil, []VID{"a"}, 1, Out, "knows")
	if fmt.Sprint(hop1) != "[b c]" {
		t.Errorf("1-hop = %v", hop1)
	}
	hop2 := g.KHop(nil, []VID{"a"}, 2, Out, "knows")
	if fmt.Sprint(hop2) != "[b c d]" {
		t.Errorf("2-hop = %v", hop2)
	}
	hop0 := g.KHop(nil, []VID{"a"}, 0, Out, "knows")
	if len(hop0) != 0 {
		t.Errorf("0-hop = %v", hop0)
	}
	// In direction: who knows c within 1 hop.
	in1 := g.KHop(nil, []VID{"c"}, 1, In, "knows")
	if fmt.Sprint(in1) != "[a b]" {
		t.Errorf("in 1-hop = %v", in1)
	}
	// Both: d reaches everyone in 2 hops.
	both2 := g.KHop(nil, []VID{"d"}, 2, Both, "knows")
	if fmt.Sprint(both2) != "[a b c]" {
		t.Errorf("both 2-hop = %v", both2)
	}
}

// refKHop is the single-start walk over Neighbors that KHop's
// multi-source walk replaced: one Edge per incident edge, a visited set
// per start. The tests check KHop against the union of its answers.
func refKHop(g *Store, tx *txn.Tx, start VID, k int, dir Dir, label string) []VID {
	visited := map[VID]bool{start: true}
	frontier := []VID{start}
	var result []VID
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		var next []VID
		for _, v := range frontier {
			for _, e := range g.Neighbors(tx, v, dir, label) {
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

// refReach is the union of refKHop over starts, minus the starts, sorted.
func refReach(g *Store, tx *txn.Tx, starts []VID, k int, dir Dir, label string) []VID {
	reach := map[VID]bool{}
	for _, s := range starts {
		for _, v := range refKHop(g, tx, s, k, dir, label) {
			reach[v] = true
		}
	}
	for _, s := range starts {
		delete(reach, s)
	}
	out := make([]VID, 0, len(reach))
	for v := range reach {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestKHopStartSets pins the multi-source walk on the social graph plus
// a self-loop d->d, an edge b->d that was removed, and an edge d->e
// committed after a reader began: every case against a literal and
// against refReach.
func TestKHopStartSets(t *testing.T) {
	g := buildSocial(t)
	for _, err := range []error{
		g.AddEdge(nil, "e7", "knows", "d", "d", mmvalue.Null),
		g.AddEdge(nil, "e8", "knows", "b", "d", mmvalue.Null),
		g.RemoveEdge(nil, "e8"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	reader := g.Manager().Begin()
	defer reader.Abort()
	if err := g.AddVertex(nil, "e", "customer", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(nil, "e9", "knows", "d", "e", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		tx     *txn.Tx
		starts []VID
		k      int
		dir    Dir
		label  string
		want   string
	}{
		{"overlapping starts", nil, []VID{"b", "d"}, 1, Both, "knows", "[a c e]"},
		{"a start another start reaches", nil, []VID{"a", "b"}, 2, Out, "knows", "[c d]"},
		{"duplicate starts", nil, []VID{"a", "a"}, 1, Out, "knows", "[b c]"},
		{"empty start set", nil, []VID{}, 2, Both, "", "[]"},
		{"nil start set", nil, nil, 2, Both, "", "[]"},
		{"k 0", nil, []VID{"a", "b"}, 0, Both, "knows", "[]"},
		{"any label", nil, []VID{"a"}, 1, Out, "", "[b c p1]"},
		{"any label, two hops", nil, []VID{"p1"}, 2, Both, "", "[a b c d]"},
		{"self-loop at a start", nil, []VID{"d"}, 1, In, "knows", "[c]"},
		{"self-loop on the way", nil, []VID{"c"}, 2, Out, "knows", "[d e]"},
		{"in", nil, []VID{"d"}, 2, In, "knows", "[a b c]"},
		{"both", nil, []VID{"c"}, 1, Both, "knows", "[a b d]"},
		{"removed edge", nil, []VID{"b"}, 1, Out, "knows", "[c]"},
		{"reader snapshot", reader, []VID{"a", "c"}, 2, Out, "knows", "[b d]"},
		{"latest next to the snapshot", nil, []VID{"a", "c"}, 2, Out, "knows", "[b d e]"},
	}
	for _, c := range cases {
		got := g.KHop(c.tx, c.starts, c.k, c.dir, c.label)
		if fmt.Sprint(got) != c.want {
			t.Errorf("%s: KHop = %v, want %s", c.name, got, c.want)
		}
		if ref := refReach(g, c.tx, c.starts, c.k, c.dir, c.label); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("%s: KHop = %v, reference %v", c.name, got, ref)
		}
	}
}

// TestKHopMatchesReference checks KHop against refReach on seeded
// random two-label graphs with self-loops and removed edges, at a
// reader's snapshot taken halfway through the writes and at the latest
// state, for random start sets (duplicates and the empty set included).
func TestKHopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 30
	vid := func(i int) VID { return VID(fmt.Sprintf("v%02d", i)) }
	labels := []string{"x", "y", ""}
	for graphNo := 0; graphNo < 20; graphNo++ {
		g := newTestGraph()
		for i := 0; i < n; i++ {
			if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
				t.Fatal(err)
			}
		}
		var live []EID
		seq := 0
		write := func(edges int) {
			for e := 0; e < edges; e++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(live))
					if err := g.RemoveEdge(nil, live[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
					continue
				}
				id := EID(fmt.Sprintf("e%d", seq))
				seq++
				if err := g.AddEdge(nil, id, labels[rng.Intn(2)], vid(rng.Intn(n)), vid(rng.Intn(n)), mmvalue.Null); err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}
		write(40)
		reader := g.Manager().Begin()
		write(40)
		for trial := 0; trial < 30; trial++ {
			starts := make([]VID, rng.Intn(6))
			for i := range starts {
				starts[i] = vid(rng.Intn(n))
			}
			k, dir, label := rng.Intn(4), Dir(rng.Intn(3)), labels[rng.Intn(3)]
			for _, tx := range []*txn.Tx{reader, nil} {
				got, want := g.KHop(tx, starts, k, dir, label), refReach(g, tx, starts, k, dir, label)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("graph %d: KHop(snapshot %v, %v, %d, %d, %q) = %v, reference %v",
						graphNo, tx != nil, starts, k, dir, label, got, want)
				}
			}
		}
		reader.Abort()
	}
}

// TestAlgorithmsHonorSnapshots pins that traversals read at the
// transaction's snapshot: an edge committed after the reader began
// extends neither its k-hop reach nor its degrees.
func TestAlgorithmsHonorSnapshots(t *testing.T) {
	g := buildSocial(t)
	reader := g.Manager().Begin()
	defer reader.Abort()
	g.AddVertex(nil, "e", "customer", mmvalue.Null)
	g.AddEdge(nil, "e9", "knows", "d", "e", mmvalue.Null)
	if got := g.KHop(reader, []VID{"a"}, 3, Out, "knows"); fmt.Sprint(got) != "[b c d]" {
		t.Errorf("snapshot 3-hop = %v", got)
	}
	if got := g.KHop(nil, []VID{"a"}, 3, Out, "knows"); fmt.Sprint(got) != "[b c d e]" {
		t.Errorf("latest 3-hop = %v", got)
	}
	if got := g.KHop(reader, []VID{"a", "d"}, 1, Out, "knows"); fmt.Sprint(got) != "[b c]" {
		t.Errorf("snapshot 1-hop from {a d} = %v", got)
	}
	if got := g.KHop(nil, []VID{"a", "d"}, 1, Out, "knows"); fmt.Sprint(got) != "[b c e]" {
		t.Errorf("latest 1-hop from {a d} = %v", got)
	}
	if d := g.Degree(reader, "d", Out, "knows"); d != 0 {
		t.Errorf("snapshot d out-degree = %d, want 0", d)
	}
	if d := g.Degree(nil, "d", Out, "knows"); d != 1 {
		t.Errorf("latest d out-degree = %d, want 1", d)
	}
}

func TestRemoveEdgeAndVertex(t *testing.T) {
	g := buildSocial(t)
	if err := g.RemoveEdge(nil, "e4"); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.GetEdge(nil, "e4"); ok {
		t.Error("removed edge visible")
	}
	if hop1 := g.KHop(nil, []VID{"a"}, 1, Out, "knows"); fmt.Sprint(hop1) != "[b]" {
		t.Errorf("1-hop after edge removal = %v", hop1)
	}
	// Removing vertex c removes incident edges.
	if err := g.RemoveVertex(nil, "c"); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.GetVertex(nil, "c"); ok {
		t.Error("removed vertex visible")
	}
	if _, ok := g.GetEdge(nil, "e2"); ok {
		t.Error("incident edge e2 survived vertex removal")
	}
	if _, ok := g.GetEdge(nil, "e6"); ok {
		t.Error("incident edge e6 survived vertex removal")
	}
	if reach := g.KHop(nil, []VID{"a"}, 3, Out, "knows"); fmt.Sprint(reach) != "[b]" {
		t.Errorf("reachable after c removed = %v, want [b]", reach)
	}
	// Removing a missing vertex is a no-op.
	if err := g.RemoveVertex(nil, "zz"); err != nil {
		t.Errorf("remove missing vertex: %v", err)
	}
}

func TestTransactionalGraphOps(t *testing.T) {
	g := buildSocial(t)
	mgr := g.Manager()
	tx := mgr.Begin()
	g.AddVertex(tx, "x", "customer", mmvalue.Null)
	g.AddEdge(tx, "ex", "knows", "a", "x", mmvalue.Null)
	// Invisible outside.
	if _, ok := g.GetVertex(nil, "x"); ok {
		t.Error("uncommitted vertex visible")
	}
	if g.Degree(nil, "a", Out, "knows") != 2 {
		t.Error("uncommitted edge counted")
	}
	// Visible inside.
	if _, ok := g.GetVertex(tx, "x"); !ok {
		t.Error("own vertex invisible")
	}
	if g.Degree(tx, "a", Out, "knows") != 3 {
		t.Error("own edge not counted")
	}
	tx.Abort()
	if _, ok := g.GetVertex(nil, "x"); ok {
		t.Error("aborted vertex leaked")
	}
	if g.Degree(nil, "a", Out, "knows") != 2 {
		t.Error("aborted edge leaked into adjacency")
	}
	// Commit path.
	tx2 := mgr.Begin()
	g.AddVertex(tx2, "x", "customer", mmvalue.Null)
	g.AddEdge(tx2, "ex", "knows", "a", "x", mmvalue.Null)
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(nil, "a", Out, "knows") != 3 {
		t.Error("committed edge lost")
	}
}

func TestSetVertexProps(t *testing.T) {
	g := buildSocial(t)
	err := g.SetVertexProps(nil, "a", func(p mmvalue.Value) (mmvalue.Value, error) {
		p.MustObject().Set("vip", mmvalue.Bool(true))
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := g.GetVertex(nil, "a")
	if vip, _ := v.Props.MustObject().Get("vip"); !mmvalue.Equal(vip, mmvalue.Bool(true)) {
		t.Error("props update lost")
	}
	if err := g.SetVertexProps(nil, "zz", func(p mmvalue.Value) (mmvalue.Value, error) { return p, nil }); err == nil {
		t.Error("update missing vertex should fail")
	}
	err = g.SetVertexProps(nil, "a", func(p mmvalue.Value) (mmvalue.Value, error) {
		return mmvalue.Int(3), nil
	})
	if err == nil {
		t.Error("non-object props should fail")
	}
}

// TestEdgeIDReuseAfterDelete pins the id rule: a removed edge's id
// comes back with its own label and endpoints at once, with another
// triple only once Compact has removed the dead record, and a snapshot
// older than the reuse still reads the original edge.
func TestEdgeIDReuseAfterDelete(t *testing.T) {
	g := newTestGraph()
	for _, v := range []VID{"a", "b", "c"} {
		g.AddVertex(nil, v, "n", mmvalue.Null)
	}
	g.AddEdge(nil, "e", "l", "a", "b", mmvalue.Null)
	g.RemoveEdge(nil, "e")
	if err := g.AddEdge(nil, "e", "l", "a", "b", mmvalue.ObjectOf("w", 2)); err != nil {
		t.Fatalf("reuse with the same triple: %v", err)
	}
	old := g.Manager().Begin()
	g.RemoveEdge(nil, "e")
	if err := g.AddEdge(nil, "e", "l", "b", "c", mmvalue.Null); err == nil {
		t.Fatal("reuse with another triple before Compact succeeded")
	}
	if e, ok := g.GetEdge(old, "e"); !ok || e.From != "a" || e.To != "b" || e.Label != "l" {
		t.Fatalf("older snapshot reads %+v, %v; want l a->b", e, ok)
	}
	old.Abort()
	g.Compact(g.Manager().Published() + 1)
	if err := g.AddEdge(nil, "e", "l", "b", "c", mmvalue.Null); err != nil {
		t.Fatalf("reuse with another triple after Compact: %v", err)
	}
	e, ok := g.GetEdge(nil, "e")
	if !ok || e.From != "b" || e.To != "c" {
		t.Fatalf("reused edge = %+v", e)
	}
	if g.Degree(nil, "a", Out, "l") != 0 {
		t.Error("old adjacency entry survived reuse")
	}
	if g.Degree(nil, "b", Out, "l") != 1 {
		t.Error("new adjacency entry missing")
	}
}

// TestApplyEdgeReplacesOtherTriple pins replay's side of the id rule:
// ApplyEdge with another label or endpoints replaces a removed or a
// live record without a Compact, so a log that reuses an id after a
// live Compact replays, and so does a second pass over it. The replaced
// record leaves both adjacency lists.
func TestApplyEdgeReplacesOtherTriple(t *testing.T) {
	g := newTestGraph()
	for _, v := range []VID{"a", "b", "c"} {
		g.AddVertex(nil, v, "n", mmvalue.Null)
	}
	g.AddEdge(nil, "e", "l", "a", "b", mmvalue.Null)
	g.RemoveEdge(nil, "e")
	for _, step := range []struct {
		label    string
		from, to VID
	}{{"m", "b", "c"}, {"l", "c", "a"}} { // over the tombstone, then over a live edge
		if err := g.ApplyEdge(nil, "e", step.label, step.from, step.to, mmvalue.Null); err != nil {
			t.Fatalf("ApplyEdge %s %s->%s: %v", step.label, step.from, step.to, err)
		}
		if e, ok := g.GetEdge(nil, "e"); !ok || e.Label != step.label || e.From != step.from || e.To != step.to {
			t.Fatalf("after ApplyEdge %s %s->%s: %+v, %v", step.label, step.from, step.to, e, ok)
		}
		if g.Len() != 1 {
			t.Fatalf("edge records = %d, want 1", g.Len())
		}
	}
	g.mu.RLock()
	entries := 0
	for _, lists := range []adjacency{g.out, g.in} {
		for _, byLabel := range lists {
			for _, cs := range byLabel {
				entries += len(cs)
			}
		}
	}
	out, in := len(g.out["c"]["l"]), len(g.in["a"]["l"])
	g.mu.RUnlock()
	if entries != 2 || out != 1 || in != 1 {
		t.Errorf("lists hold %d entries, e %d times out of c and %d into a; want 2, 1, 1", entries, out, in)
	}
	if got := g.KHop(nil, []VID{"c"}, 2, Both, ""); fmt.Sprint(got) != "[a]" {
		t.Errorf("KHop from c = %v, want [a]", got)
	}
}

func TestConcurrentGraphMutations(t *testing.T) {
	g := newTestGraph()
	g.AddVertex(nil, "center", "n", mmvalue.Null)
	var wg sync.WaitGroup
	const workers, per = 4, 40
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := VID(fmt.Sprintf("w%d-v%d", w, i))
				if err := g.AddVertex(nil, v, "n", mmvalue.Null); err != nil {
					t.Errorf("vertex: %v", err)
					return
				}
				if err := g.AddEdge(nil, EID("e-"+string(v)), "l", v, "center", mmvalue.Null); err != nil {
					t.Errorf("edge: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			g.Degree(nil, "center", In, "l")
			g.KHop(nil, []VID{"center"}, 1, In, "l")
		}
	}()
	wg.Wait()
	if got := g.Degree(nil, "center", In, "l"); got != workers*per {
		t.Fatalf("center degree = %d, want %d", got, workers*per)
	}
}

// ringWithChords builds n vertices v0000.. with an edge labelled l from
// each to the next (a ring) and to the seventh next (a chord).
func ringWithChords(t testing.TB, n int, l string) *Store {
	t.Helper()
	g := newTestGraph()
	vid := func(i int) VID { return VID(fmt.Sprintf("v%04d", i%n)) }
	for i := 0; i < n; i++ {
		if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for _, err := range []error{
			g.AddEdge(nil, EID(fmt.Sprintf("r%04d", i)), l, vid(i), vid(i+1), mmvalue.Null),
			g.AddEdge(nil, EID(fmt.Sprintf("c%04d", i)), l, vid(i), vid(i+7), mmvalue.Null),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestKHopUnderWriters walks from a start set at a fixed snapshot while
// writers add knows edges and remove both theirs and the ring's: every
// walk, up to one after the writers finish, must return the answer
// taken at that snapshot before the writers started.
func TestKHopUnderWriters(t *testing.T) {
	const n = 200
	g := ringWithChords(t, n, "knows")
	starts := []VID{"v0000", "v0050", "v0100", "v0101"}
	reader := g.Manager().Begin()
	defer reader.Abort()
	want := fmt.Sprint(g.KHop(reader, starts, 2, Both, "knows"))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				id := EID(fmt.Sprintf("w%d-%d", w, i))
				from, to := VID(fmt.Sprintf("v%04d", (i*13+w)%n)), VID(fmt.Sprintf("v%04d", (i*29+50)%n))
				for _, err := range []error{
					g.AddEdge(nil, id, "knows", from, to, mmvalue.Null),
					g.RemoveEdge(nil, EID(fmt.Sprintf("r%04d", 2*i+w))),
				} {
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
				if i%2 == 1 {
					if err := g.RemoveEdge(nil, id); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		if got := fmt.Sprint(g.KHop(reader, starts, 2, Both, "knows")); got != want {
			t.Errorf("walk at the snapshot under writers:\n got  %s\n want %s", got, want)
			break
		}
	}
	<-done
	if latest := fmt.Sprint(g.KHop(nil, starts, 2, Both, "knows")); latest == want {
		t.Error("the writers changed nothing the walk reaches: the test proves nothing")
	}
}

// BenchmarkKHop times a 3-hop walk from one start and, as Q6 does from a
// product's buyers, a 2-hop walk in both directions from 1 000 starts,
// on a 2 000-vertex ring with chords plus a hub with an edge to every
// tenth vertex. Both walk the CSR once the first walks have rented it.
// The starts1000 walk is timed twice more: maps, the reference walk
// over the adjacency maps by a transaction that has written, and build,
// a buy after every commit (the account is filled with the timer
// stopped, so each op builds the CSR and walks it).
func BenchmarkKHop(b *testing.B) {
	const n = 2000
	g := ringWithChords(b, n, "l")
	if err := g.AddVertex(nil, "hub", "n", mmvalue.Null); err != nil {
		b.Fatal(err)
	}
	starts := make([]VID, 0, n/2)
	for i := 0; i < n; i++ {
		v := VID(fmt.Sprintf("v%04d", i))
		if i%10 == 0 {
			if err := g.AddEdge(nil, EID("h"+string(v)), "l", "hub", v, mmvalue.Null); err != nil {
				b.Fatal(err)
			}
		}
		if i%2 == 0 {
			starts = append(starts, v)
		}
	}
	b.Run("start1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.KHop(nil, []VID{VID(fmt.Sprintf("v%04d", i%n))}, 3, Out, "l")
		}
	})
	b.Run("starts1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.KHop(nil, starts, 2, Both, "l")
		}
	})
	b.Run("maps", func(b *testing.B) {
		writer := g.Manager().Begin()
		defer writer.Abort()
		if err := g.AddVertex(writer, "written", "n", mmvalue.Null); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.KHop(writer, starts, 2, Both, "l")
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := g.SetVertexProps(nil, "hub", func(mmvalue.Value) (mmvalue.Value, error) {
				return mmvalue.ObjectOf("i", i), nil
			}); err != nil {
				b.Fatal(err)
			}
			g.RentCSR("l", Both)
			b.StartTimer()
			g.KHop(nil, starts, 2, Both, "l")
		}
	})
}

// TestEdgeRelinkRollsBackOnAbort pins that an edge id is never relinked:
// re-adding a removed edge with a new label or endpoints is refused
// while its record exists, and an aborted re-add with its own triple
// leaves the record and the adjacency lists as they were, so an older
// snapshot still sees the original edge once.
func TestEdgeRelinkRollsBackOnAbort(t *testing.T) {
	g := newTestGraph()
	for _, v := range []VID{"a", "b", "c"} {
		g.AddVertex(nil, v, "n", mmvalue.Null)
	}
	if err := g.AddEdge(nil, "e", "l", "a", "b", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	old := g.Manager().Begin()
	defer old.Abort()
	if err := g.RemoveEdge(nil, "e"); err != nil {
		t.Fatal(err)
	}
	tx := g.Manager().Begin()
	if err := g.AddEdge(tx, "e", "m", "b", "c", mmvalue.Null); err == nil {
		t.Fatal("re-add with a new label and endpoints succeeded")
	}
	if err := g.AddEdge(tx, "e", "l", "a", "b", mmvalue.ObjectOf("w", 1)); err != nil {
		t.Fatal(err)
	}
	if e, ok := g.GetEdge(tx, "e"); !ok || e.Label != "l" || e.From != "a" || e.To != "b" {
		t.Fatalf("in-flight re-add = %+v, %v", e, ok)
	}
	tx.Abort()
	e, ok := g.GetEdge(old, "e")
	if !ok || e.Label != "l" || e.From != "a" || e.To != "b" || e.Props.MustObject().Len() != 0 {
		t.Fatalf("old snapshot after aborted re-add = %+v, %v; want l a->b", e, ok)
	}
	if d := g.Degree(old, "a", Out, "l"); d != 1 {
		t.Errorf("old snapshot a out-degree over l = %d, want 1", d)
	}
	if d := g.Degree(old, "b", Out, "m"); d != 0 {
		t.Errorf("refused re-add left b -m-> adjacency, degree %d", d)
	}
	g.mu.RLock()
	out, in := len(g.out["a"]["l"]), len(g.in["b"]["l"])
	g.mu.RUnlock()
	if out != 1 || in != 1 {
		t.Errorf("aborted re-add: e listed %d times out of a, %d into b; want 1, 1", out, in)
	}
	if _, ok := g.GetEdge(nil, "e"); ok {
		t.Error("removed edge visible at latest after aborted re-add")
	}
}

// TestEdgeInsertAbortRetryLinksOnce pins the adjacency invariant through
// a deadlock retry's path: a fresh insert on a shared transaction that
// aborts leaves an empty chain and unlinks it, and the retry with the
// same id links it again exactly once.
func TestEdgeInsertAbortRetryLinksOnce(t *testing.T) {
	g := buildSocial(t)
	for attempt := 0; attempt < 3; attempt++ {
		tx := g.Manager().Begin()
		if err := g.AddEdge(tx, "ed", "knows", "d", "a", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
		if attempt < 2 {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	g.mu.RLock()
	out, in := len(g.out["d"]["knows"]), len(g.in["a"]["knows"])
	g.mu.RUnlock()
	if out != 1 || in != 1 {
		t.Errorf("after two aborts and a commit: ed listed %d times out of d, %d into a; want 1, 1", out, in)
	}
	starts := []VID{"a", "d"}
	for _, dir := range []Dir{Out, In, Both} {
		got, want := g.KHop(nil, starts, 3, dir, "knows"), g.KHopMaps(nil, starts, 3, dir, "knows")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("dir %d: KHop = %v, map walk %v", dir, got, want)
		}
	}
	if got := g.Neighbors(nil, "d", Out, "knows"); len(got) != 1 || got[0].ID != "ed" {
		t.Errorf("d's out-edges = %v, want ed once", got)
	}
}

// TestVertexRelabelRollsBackOnAbort is the vertex counterpart: re-adding
// a removed vertex under a new label and aborting must leave the old
// label, so an older snapshot still sees the vertex as it was.
func TestVertexRelabelRollsBackOnAbort(t *testing.T) {
	g := newTestGraph()
	if err := g.AddVertex(nil, "v", "a", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	old := g.Manager().Begin()
	defer old.Abort()
	if err := g.RemoveVertex(nil, "v"); err != nil {
		t.Fatal(err)
	}
	tx := g.Manager().Begin()
	if err := g.AddVertex(tx, "v", "b", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	if v, ok := g.GetVertex(tx, "v"); !ok || v.Label != "b" {
		t.Fatalf("in-flight re-add = %+v, %v", v, ok)
	}
	tx.Abort()
	if v, ok := g.GetVertex(old, "v"); !ok || v.Label != "a" {
		t.Fatalf("old snapshot after aborted re-add = %+v, %v; want label a", v, ok)
	}
	if _, ok := g.GetVertex(nil, "v"); ok {
		t.Error("removed vertex visible at latest after aborted re-add")
	}
}

// TestGetVertexDuringRelabel reads vertices while replay-style upserts
// flip their labels; run under -race it pins that GetVertex reads the
// label under the store lock putVertex writes it under.
func TestGetVertexDuringRelabel(t *testing.T) {
	g := newTestGraph()
	const n = 8
	for i := 0; i < n; i++ {
		if err := g.AddVertex(nil, VID(fmt.Sprint(i)), "even", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 200; r++ {
			label := [2]string{"even", "odd"}[r%2]
			for i := 0; i < n; i++ {
				if err := g.ApplyVertex(nil, VID(fmt.Sprint(i)), label, mmvalue.Null); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 200; r++ {
		for i := 0; i < n; i++ {
			if v, ok := g.GetVertex(nil, VID(fmt.Sprint(i))); !ok || (v.Label != "even" && v.Label != "odd") {
				t.Fatalf("GetVertex(%d) = %+v, %v", i, v, ok)
			}
		}
	}
	wg.Wait()
}

// edgesByScan is the reference for Edges: every edge record in id order
// as tx sees it, filtered by label.
func edgesByScan(g *Store, tx *txn.Tx, label string) []Edge {
	var out []Edge
	g.edges.Scan(tx, "", "", func(_ string, e *Edge) bool {
		if label == "" || e.Label == label {
			out = append(out, *e)
		}
		return true
	})
	return out
}

// edgesSorted collects Edges(tx, label) and sorts the result by id.
func edgesSorted(g *Store, tx *txn.Tx, label string) []Edge {
	var out []Edge
	g.Edges(tx, label, func(e Edge) bool { out = append(out, e); return true })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestEdgesByLabelMatchesFilteredScan(t *testing.T) {
	g := buildSocial(t)
	mgr := g.Manager()
	snap := mgr.Begin() // sees the six edges of buildSocial
	defer snap.Abort()
	if err := g.RemoveEdge(nil, "e2"); err != nil {
		t.Fatal(err)
	}
	// Relabel: remove e3; its id stays knows c->d until compacted, so
	// the follows edge takes a new id.
	if err := g.RemoveEdge(nil, "e3"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(nil, "e3", "follows", "d", "a", mmvalue.Null); err == nil {
		t.Fatal("e3 reused under another label before Compact")
	}
	if err := g.AddEdge(nil, "f3", "follows", "d", "a", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	open := mgr.Begin()
	defer open.Abort()
	if err := g.AddEdge(open, "e7", "knows", "d", "b", mmvalue.Null); err != nil {
		t.Fatal(err)
	}

	readers := []struct {
		name string
		tx   *txn.Tx
	}{{"latest", nil}, {"snapshot", snap}, {"open tx", open}}
	for _, r := range readers {
		union := 0
		for _, label := range []string{"knows", "bought", "follows", "missing"} {
			got, want := edgesSorted(g, r.tx, label), edgesByScan(g, r.tx, label)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s Edges(%q) = %v, want %v", r.name, label, got, want)
			}
			union += len(got)
		}
		all := edgesSorted(g, r.tx, "")
		if want := edgesByScan(g, r.tx, ""); fmt.Sprint(all) != fmt.Sprint(want) {
			t.Errorf("%s Edges(\"\") = %v, want %v", r.name, all, want)
		}
		if len(all) != union {
			t.Errorf("%s: Edges(\"\") has %d edges, the labels' union %d", r.name, len(all), union)
		}
	}
	count := func(tx *txn.Tx, label string) int { return len(edgesSorted(g, tx, label)) }
	if n := count(nil, "knows"); n != 2 { // e1, e4
		t.Errorf("latest knows = %d, want 2", n)
	}
	if n := count(open, "knows"); n != 3 { // e1, e4 and the pending e7
		t.Errorf("open tx knows = %d, want 3", n)
	}
	if got := edgesSorted(g, snap, "knows"); len(got) < 2 || got[1].ID != "e2" {
		t.Errorf("snapshot knows = %v, want e2 (removed after the snapshot) included", got)
	}
	if n := count(nil, "follows"); n != 1 {
		t.Errorf("latest follows = %d, want 1", n)
	}
	stopped := 0
	g.Edges(nil, "", func(Edge) bool { stopped++; return false })
	if stopped != 1 {
		t.Errorf("Edges kept calling after fn returned false: %d calls", stopped)
	}
}

// TestVersionCountsWrites pins Version's contract: every write path
// moves the counter no later than its commit becomes visible — a reader
// that sees the write also sees a new version — an aborted write, an
// edge insert's link and unlink included, does not move it, and reads
// never move it.
func TestVersionCountsWrites(t *testing.T) {
	g := buildSocial(t)
	for _, w := range []struct {
		name    string
		write   func() error
		visible func() bool
	}{
		{"AddVertex", func() error { return g.AddVertex(nil, "x", "customer", mmvalue.Null) },
			func() bool { _, ok := g.GetVertex(nil, "x"); return ok }},
		{"AddEdge", func() error { return g.AddEdge(nil, "ex", "knows", "x", "a", mmvalue.Null) },
			func() bool { _, ok := g.GetEdge(nil, "ex"); return ok }},
		{"SetVertexProps", func() error {
			return g.SetVertexProps(nil, "x", func(mmvalue.Value) (mmvalue.Value, error) { return mmvalue.ObjectOf("k", 1), nil })
		}, func() bool { v, ok := g.GetVertex(nil, "x"); return ok && v.Props.MustObject().Len() == 1 }},
		{"ApplyEdge", func() error { return g.ApplyEdge(nil, "ex", "knows", "x", "a", mmvalue.ObjectOf("w", 1)) },
			func() bool { e, ok := g.GetEdge(nil, "ex"); return ok && e.Props.MustObject().Len() == 1 }},
		{"RemoveEdge", func() error { return g.RemoveEdge(nil, "ex") },
			func() bool { _, ok := g.GetEdge(nil, "ex"); return !ok }},
		{"RemoveVertex", func() error { return g.RemoveVertex(nil, "x") },
			func() bool { _, ok := g.GetVertex(nil, "x"); return !ok }},
	} {
		before := g.Version()
		seen := make(chan uint64)
		go func() { // the version a reader sees once the write is visible
			for !w.visible() {
			}
			seen <- g.Version()
		}()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if v := <-seen; v == before {
			t.Errorf("%s: visible at version %d, the version before it", w.name, v)
		}
	}

	before := g.Version()
	tx := g.Manager().Begin()
	if err := g.AddEdge(tx, "ey", "knows", "b", "a", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	mid := g.Version()
	tx.Abort()
	if after := g.Version(); mid != before || after != before {
		t.Errorf("aborted insert: version %d, then %d, then %d after the undo; want it unmoved", before, mid, after)
	}

	before = g.Version()
	g.GetVertex(nil, "a")
	g.GetEdge(nil, "e1")
	g.Neighbors(nil, "a", Both, "")
	g.KHop(nil, []VID{"a"}, 2, Both, "knows")
	g.Edges(nil, "knows", func(Edge) bool { return true })
	g.VertexCount(nil)
	if g.Len() == 0 || g.Version() != before {
		t.Errorf("reads moved the version %d -> %d", before, g.Version())
	}
}
