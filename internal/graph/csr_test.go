package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

var dirs = []graph.Dir{graph.Out, graph.In, graph.Both}

func vid(i int) graph.VID { return graph.VID(fmt.Sprintf("v%02d", i)) }

// buyAll rents and then walks every (label, dir) key once, so each has
// a CSR at the current version, and fails unless that built one each.
func buyAll(t *testing.T, g *graph.Store, labels []string, start graph.VID) {
	t.Helper()
	before := g.CSRBuilds()
	for _, label := range labels {
		for _, dir := range dirs {
			g.RentCSR(label, dir)
			g.KHop(nil, []graph.VID{start}, 2, dir, label)
		}
	}
	if got, want := g.CSRBuilds()-before, uint64(len(labels)*len(dirs)); got != want {
		t.Fatalf("buying every key built %d CSRs, want %d", got, want)
	}
}

// TestKHopCSRMatchesMaps checks the CSR walk against the map walk on
// seeded random graphs over three labels with vertex props rewrites,
// edges rewritten in place by ApplyEdge, self-loops, parallel
// edges, and start sets with duplicates and absent vertices, for k 0-3,
// every direction and label "" too, after each of three write stages.
func TestKHopCSRMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 30
	labels := []string{"x", "y", "z", ""}
	for graphNo := 0; graphNo < 12; graphNo++ {
		g := graph.NewStore("g", txn.NewManager())
		for i := 0; i < n; i++ {
			if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
				t.Fatal(err)
			}
		}
		var ids []graph.EID
		for stage := 0; stage < 3; stage++ {
			for w := 0; w < 40; w++ {
				from, to := vid(rng.Intn(n)), vid(rng.Intn(n))
				label := labels[rng.Intn(3)]
				var err error
				switch op := rng.Intn(10); {
				case op < 2 && len(ids) > 0: // rewrite a vertex's props
					err = g.SetVertexProps(nil, from, func(mmvalue.Value) (mmvalue.Value, error) { return mmvalue.ObjectOf("w", w), nil })
				case op < 4 && len(ids) > 0: // rewrite an edge in place
					id := ids[rng.Intn(len(ids))]
					e, _ := g.GetEdge(nil, id)
					err = g.ApplyEdge(nil, id, e.Label, e.From, e.To, mmvalue.ObjectOf("w", w))
				case op < 5: // self-loop
					to = from
					fallthrough
				default:
					id := graph.EID(fmt.Sprintf("e%d", len(ids)))
					ids = append(ids, id)
					err = g.AddEdge(nil, id, label, from, to, mmvalue.Null)
					if err == nil && op == 9 { // a parallel edge
						id = graph.EID(fmt.Sprintf("e%d", len(ids)))
						ids = append(ids, id)
						err = g.AddEdge(nil, id, label, from, to, mmvalue.Null)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			buyAll(t, g, labels, vid(0))
			builds := g.CSRBuilds()
			for trial := 0; trial < 60; trial++ {
				starts := make([]graph.VID, rng.Intn(6))
				for i := range starts {
					if starts[i] = vid(rng.Intn(n)); rng.Intn(8) == 0 {
						starts[i] = "absent"
					}
				}
				if len(starts) > 1 && rng.Intn(4) == 0 {
					starts[1] = starts[0]
				}
				k, dir, label := rng.Intn(4), dirs[rng.Intn(3)], labels[rng.Intn(4)]
				reader := g.Manager().Begin()
				for _, tx := range []*txn.Tx{nil, reader} {
					got, want := g.KHop(tx, starts, k, dir, label), g.KHopMaps(tx, starts, k, dir, label)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("graph %d stage %d: KHop(reader %v, %v, %d, %d, %q) = %v, map walk %v",
							graphNo, stage, tx != nil, starts, k, dir, label, got, want)
					}
				}
				reader.Abort()
			}
			if g.CSRBuilds() != builds {
				t.Fatalf("graph %d stage %d: walks at one version built %d more CSRs", graphNo, stage, g.CSRBuilds()-builds)
			}
		}
	}
}

// TestKHopCSRFallbacks pins the two readers the CSR gates send to the
// maps: one whose snapshot is older than the CSR's, and one that has
// written. Each must get the map walk's answer, which here differs
// from the CSR's.
func TestKHopCSRFallbacks(t *testing.T) {
	g := graph.NewStore("g", txn.NewManager())
	for i := 0; i < 6; i++ {
		if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(tx *txn.Tx, id graph.EID, from, to int) {
		t.Helper()
		if err := g.AddEdge(tx, id, "knows", vid(from), vid(to), mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	chain(nil, "e01", 0, 1)
	chain(nil, "e12", 1, 2)
	old := g.Manager().Begin()
	defer old.Abort()
	chain(nil, "e23", 2, 3)
	buyAll(t, g, []string{"knows"}, vid(0))
	starts := []graph.VID{vid(1)}
	latest := fmt.Sprint(g.KHop(nil, starts, 2, graph.Out, "knows"))
	if latest != "[v02 v03]" {
		t.Fatalf("latest walk = %s, want [v02 v03]", latest)
	}

	writer := g.Manager().Begin()
	defer writer.Abort()
	chain(writer, "e14", 1, 4)
	for _, c := range []struct {
		name string
		tx   *txn.Tx
		want string
	}{
		{"snapshot older than the CSR", old, "[v02]"},
		{"reader that has written", writer, "[v02 v03 v04]"},
	} {
		got := fmt.Sprint(g.KHop(c.tx, starts, 2, graph.Out, "knows"))
		if ref := fmt.Sprint(g.KHopMaps(c.tx, starts, 2, graph.Out, "knows")); got != c.want || ref != c.want {
			t.Errorf("%s: KHop = %s, map walk %s, want %s", c.name, got, ref, c.want)
		}
	}
	if got := fmt.Sprint(g.KHop(nil, starts, 2, graph.Out, "knows")); got != latest {
		t.Errorf("an uncommitted edge reached the shared CSR: %s, want %s", got, latest)
	}
}

// ringStore builds n vertices, each with an edge labelled l to the next
// and to the seventh next.
func ringStore(t *testing.T, n int) *graph.Store {
	t.Helper()
	g := graph.NewStore("g", txn.NewManager())
	for i := 0; i < n; i++ {
		if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for _, step := range []int{1, 7} {
			id := graph.EID(fmt.Sprintf("r%d-%d", step, i))
			if err := g.AddEdge(nil, id, "l", vid(i), vid((i+step)%n), mmvalue.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestCSRAfterCommitInScan releases a writer from inside buildCSR's
// scan and waits for its commit of a new edge: the CSR the scan built
// is at the version before the edge. The buyer's own walk runs after
// the commit, so it must not get that CSR: like every later walk, by a
// nil reader and by a snapshot begun after the commit, before and after
// they buy again, it must equal the map walk and reach the edge's end.
// Only the buyer's walk can catch an install without the version
// re-check: a later reader reads the new version and opens a new
// account, which holds no stale CSR either way.
func TestCSRAfterCommitInScan(t *testing.T) {
	g := ringStore(t, 60)
	starts := []graph.VID{vid(0)}
	release, committed := make(chan struct{}), make(chan error)
	go func() {
		<-release
		committed <- g.AddEdge(nil, "extra", "l", vid(0), vid(40), mmvalue.Null)
	}()
	var once sync.Once
	g.OnCSRScanned(func() {
		once.Do(func() {
			close(release)
			if err := <-committed; err != nil {
				t.Error(err)
			}
		})
	})
	g.RentCSR("l", graph.Both)
	buyer := g.KHop(nil, starts, 2, graph.Both, "l")
	if g.CSRBuilds() != 1 {
		t.Fatalf("the buy built %d CSRs, want 1", g.CSRBuilds())
	}
	check := func(what string, got, want []graph.VID) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) || !slices.Contains(got, vid(40)) {
			t.Errorf("%s: KHop = %v, map walk %v", what, got, want)
		}
	}
	check("the buyer's walk", buyer, g.KHopMaps(nil, starts, 2, graph.Both, "l"))
	snap := g.Manager().Begin()
	defer snap.Abort()
	for _, buy := range []bool{false, true} {
		if buy {
			g.RentCSR("l", graph.Both)
		}
		for _, tx := range []*txn.Tx{nil, snap} {
			check(fmt.Sprintf("bought %v, snapshot %v", buy, tx != nil),
				g.KHop(tx, starts, 2, graph.Both, "l"), g.KHopMaps(tx, starts, 2, graph.Both, "l"))
		}
	}
}

// TestCSRBuildsOncePerVersion pins rent-then-buy and the flight: 1, 2
// and 4 concurrent first walkers over a full account build one CSR, a
// commit makes the next buy build again, and one-hop walks never buy,
// not even over a full account.
func TestCSRBuildsOncePerVersion(t *testing.T) {
	const n = 60
	starts := []graph.VID{vid(0), vid(30)}
	for _, walkers := range []int{1, 2, 4} {
		g := ringStore(t, 3000) // a build long enough for the walkers to meet
		want := fmt.Sprint(g.KHopMaps(nil, starts, 2, graph.Both, "l"))
		g.RentCSR("l", graph.Both)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := fmt.Sprint(g.KHop(nil, starts, 2, graph.Both, "l")); got != want {
					t.Errorf("%d walkers: KHop = %s, map walk %s", walkers, got, want)
				}
			}()
		}
		close(start)
		wg.Wait()
		if b := g.CSRBuilds(); b != 1 {
			t.Errorf("%d concurrent first walkers built %d CSRs, want 1", walkers, b)
		}
	}

	g := ringStore(t, n)
	g.RentCSR("l", graph.Both)
	g.KHop(nil, starts, 2, graph.Both, "l")
	if err := g.AddEdge(nil, "extra", "l", vid(0), vid(40), mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // two walks charge less than a build's cost
		if g.KHop(nil, starts, 2, graph.Both, "l"); g.CSRBuilds() != 1 {
			t.Fatalf("walk %d after a commit bought before its account was full: %d builds", i, g.CSRBuilds())
		}
	}
	g.RentCSR("l", graph.Both)
	got := fmt.Sprint(g.KHop(nil, starts, 2, graph.Both, "l"))
	if g.CSRBuilds() != 2 || got != fmt.Sprint(g.KHopMaps(nil, starts, 2, graph.Both, "l")) {
		t.Errorf("buy after a commit: %d builds and %s, want 2 builds and the map walk", g.CSRBuilds(), got)
	}

	g = ringStore(t, n)
	for i := 0; i < 1000; i++ {
		g.KHop(nil, []graph.VID{vid(i % n)}, 1, graph.Both, "l")
	}
	g.RentCSR("l", graph.Out)
	for i := 0; i < 100; i++ {
		g.KHop(nil, []graph.VID{vid(i % n)}, 1, graph.Out, "l")
	}
	if b := g.CSRBuilds(); b != 0 {
		t.Errorf("one-hop walks bought %d CSRs", b)
	}
	if g.KHop(nil, starts, 2, graph.Out, "l"); g.CSRBuilds() != 1 {
		t.Errorf("a two-hop walk over the full account built %d CSRs, want 1", g.CSRBuilds())
	}
}

// endsOf lists the edge ends of label visible to tx as EdgeEnds reports
// them, sorted, and whether it read them off the CSR.
func endsOf(g *graph.Store, tx *txn.Tx, label string) ([]graph.VID, bool) {
	var ends []graph.VID
	ok := g.EdgeEnds(tx, label, func(v graph.VID) { ends = append(ends, v) })
	return ends, ok
}

// scannedEnds lists the ends of label's edges visible to tx from an
// Edges scan, sorted: FromEdgeEnds's rows, the reference.
func scannedEnds(g *graph.Store, tx *txn.Tx, label string) []graph.VID {
	var ends []graph.VID
	g.Edges(tx, label, func(e graph.Edge) bool { ends = append(ends, e.From, e.To); return true })
	slices.Sort(ends)
	return ends
}

// TestEdgeEndsFromCSRMatchScan checks the edge ends read off a label's
// Both CSR against an Edges scan, as multisets, over labels with
// self-loops, parallel edges and edges added after a reader began, a
// label with no edges, and label "": a nil and a snapshot reader read
// the CSR, a reader that has written and one older than the CSR fall
// back. The first read buys
// the CSR outright, and a two-hop walk after it builds nothing more.
func TestEdgeEndsFromCSRMatchScan(t *testing.T) {
	g := graph.NewStore("g", txn.NewManager())
	for i := 0; i < 8; i++ {
		if err := g.AddVertex(nil, vid(i), "n", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range []struct {
		label    string
		from, to int
	}{{"x", 0, 1}, {"x", 0, 1}, {"x", 2, 2}, {"x", 1, 3}, {"x", 3, 4}, {"y", 4, 4}, {"y", 5, 0}, {"x", 6, 7}, {"y", 6, 7}} {
		if err := g.AddEdge(nil, graph.EID(fmt.Sprintf("e%d", i)), e.label, vid(e.from), vid(e.to), mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	old := g.Manager().Begin()
	defer old.Abort()
	for _, e := range []struct {
		id       graph.EID
		label    string
		from, to int
	}{{"e9", "x", 7, 6}, {"e10", "y", 7, 6}} {
		if err := g.AddEdge(nil, e.id, e.label, vid(e.from), vid(e.to), mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	if ends, ok := endsOf(g, nil, "x"); !ok || g.CSRBuilds() != 1 {
		t.Fatalf("a first read got the CSR %v after %d builds, want true after 1", ok, g.CSRBuilds())
	} else if want := scannedEnds(g, nil, "x"); fmt.Sprint(ends) != fmt.Sprint(want) {
		t.Fatalf("CSR ends %v, scan %v", ends, want)
	}
	if got, want := fmt.Sprint(g.KHop(nil, []graph.VID{vid(0)}, 2, graph.Both, "x")), fmt.Sprint(g.KHopMaps(nil, []graph.VID{vid(0)}, 2, graph.Both, "x")); got != want || g.CSRBuilds() != 1 {
		t.Fatalf("two-hop walk after the ends: %s after %d builds, want the map walk %s after 1", got, g.CSRBuilds(), want)
	}

	snap := g.Manager().Begin()
	defer snap.Abort()
	writer := g.Manager().Begin()
	defer writer.Abort()
	for _, id := range []graph.EID{"w1", "w2"} {
		if err := g.AddEdge(writer, id, "x", vid(5), vid(5), mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	for _, label := range []string{"x", "y", "none", ""} {
		for _, r := range []struct {
			name string
			tx   *txn.Tx
			csr  bool
		}{{"nil reader", nil, true}, {"snapshot reader", snap, true}, {"reader that has written", writer, false}, {"reader older than the CSR", old, false}} {
			ends, ok := endsOf(g, r.tx, label)
			if ok != r.csr {
				t.Errorf("%q, %s: read off the CSR %v, want %v", label, r.name, ok, r.csr)
			}
			if want := scannedEnds(g, r.tx, label); ok && fmt.Sprint(ends) != fmt.Sprint(want) {
				t.Errorf("%q, %s: CSR ends %v, scan %v", label, r.name, ends, want)
			}
		}
	}
	if got, want := g.CSRBuilds(), uint64(4); got != want {
		t.Errorf("%d CSR builds, want one per label", got)
	}
}
