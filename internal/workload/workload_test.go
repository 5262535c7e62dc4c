package workload

import (
	"sort"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/federation"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

// fixture loads the same dataset into both engines once per test run.
type fixture struct {
	ds   *datagen.Dataset
	info Info
	uni  *UDBMSEngine
	fed  *FederationEngine
}

func newFixture(t testing.TB, sf float64) *fixture {
	t.Helper()
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1234})
	db := udbms.Open()
	if err := ds.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	f := federation.Open()
	if err := ds.Load(f.Stores()); err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, info: InfoOf(ds), uni: NewUDBMSEngine(db), fed: NewFederationEngine(f)}
}

func TestQueryIDStrings(t *testing.T) {
	if Q1.String() != "Q1" || Q10.String() != "Q10" {
		t.Error("query names wrong")
	}
	for _, q := range AllQueries {
		if q.Models() == "?" {
			t.Errorf("%s has no model annotation", q)
		}
	}
	if QueryID(99).Models() != "?" {
		t.Error("unknown query should report ?")
	}
}

func TestEnginesProduceIdenticalResults(t *testing.T) {
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 7, 0)
	for trial := 0; trial < 5; trial++ {
		p := gen.Next()
		for _, q := range AllQueries {
			a, err := fx.uni.RunQuery(q, p)
			if err != nil {
				t.Fatalf("%s udbms: %v", q, err)
			}
			b, err := fx.fed.RunQuery(q, p)
			if err != nil {
				t.Fatalf("%s federation: %v", q, err)
			}
			if a != b {
				t.Errorf("%s: udbms=%d federation=%d (params %+v)", q, a, b, p)
			}
		}
	}
}

// q11FriendNetworkSpend is the reference for Q11, the one join query
// relbe (and so TestQueryAgreement) does not cover: hand-written against
// the stores, no executor. It walks the two-hop "knows" network of a
// customer, then checks each friend's relational row and order totals;
// the result counts the distinct cities of friends who spent more than
// the threshold.
func q11FriendNetworkSpend(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.Hop()
	friends := st.Graph.KHop(s.GraphTx(), []graph.VID{graph.VID(datagen.CustomerVID(p.CustomerID))}, 2, graph.Both, "knows")
	orders := st.Docs.Collection("orders")
	cities := map[string]bool{}
	for _, f := range friends {
		fid, ok := customerIDOf(string(f))
		if !ok {
			continue
		}
		s.Hop()
		row, ok := cust.Get(s.RelTx(), fid)
		if !ok {
			continue
		}
		sum := 0.0
		s.Hop()
		for _, o := range orders.Find(s.DocTx(), document.Eq("customer_id", fid)) {
			t, _ := o.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
			sum += t
		}
		if sum > p.Threshold {
			city, _ := row.MustObject().GetOr("city", mmvalue.Null).AsString()
			if city != "" {
				cities[city] = true
			}
		}
	}
	return len(cities), nil
}

func TestQ11MatchesReference(t *testing.T) {
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 11, 0)
	nonzero := 0
	for trial := 0; trial < 20; trial++ {
		p := gen.Next()
		var want int
		if err := fx.uni.read(func(s session) (err error) {
			want, err = q11FriendNetworkSpend(fx.uni.DB.Stores(), s, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if want > 0 {
			nonzero++
		}
		for _, e := range []Engine{fx.uni, fx.fed} {
			if got, err := e.RunQuery(Q11, p); err != nil || got != want {
				t.Errorf("%s Q11 = %d, %v; reference %d (params %+v)", e.Name(), got, err, want, p)
			}
		}
	}
	if nonzero == 0 {
		t.Error("every draw had an empty answer: the comparison proves nothing")
	}
}

// q9SortedScan is the reference for Q9, written the way Q9 used to read
// the graph before graph.Edges took a label: gather every live edge of
// every label, sort them all by id, and count only the "knows" ones
// (q9SortedRanking); then count the ranked customers' feedback.
func q9SortedScan(st datagen.Target, s session, p Params) (int, error) {
	total := 0
	for _, t := range q9SortedRanking(st, s, p) {
		cid, ok := customerIDOf(string(t.v))
		if !ok {
			continue
		}
		s.Hop()
		st.KV.ScanPrefix(s.KVTx(), feedbackPrefix(cid), func(string, mmvalue.Value) bool {
			total++
			return true
		})
	}
	return total, nil
}

// q9Ranked is one (v, degree) entry of Q9's ranking.
type q9Ranked struct {
	v graph.VID
	d int
}

// q9SortedRanking is q9SortedScan's ranking: the top N vertices by
// "knows" degree, ties by vertex id.
func q9SortedRanking(st datagen.Target, s session, p Params) []q9Ranked {
	s.Hop()
	var all []graph.Edge
	st.Graph.EachEdge(s.GraphTx(), "", func(e *graph.Edge) bool {
		all = append(all, *e)
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	degree := map[graph.VID]int{}
	for _, e := range all {
		if e.Label == "knows" {
			degree[e.From]++
			degree[e.To]++
		}
	}
	var top []q9Ranked
	for v, d := range degree {
		top = append(top, q9Ranked{v, d})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].d != top[j].d {
			return top[i].d > top[j].d
		}
		return top[i].v < top[j].v
	})
	return top[:min(len(top), p.TopN)]
}

func TestQ9MatchesReference(t *testing.T) {
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 9, 0)
	nonzero := 0
	for trial := 0; trial < 20; trial++ {
		p := gen.Next()
		var want int
		if err := fx.uni.read(func(s session) (err error) {
			want, err = q9SortedScan(fx.uni.DB.Stores(), s, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if want > 0 {
			nonzero++
		}
		for _, e := range []Engine{fx.uni, fx.fed} {
			if got, err := e.RunQuery(Q9, p); err != nil || got != want {
				t.Errorf("%s Q9 = %d, %v; reference %d (params %+v)", e.Name(), got, err, want, p)
			}
		}
	}
	if nonzero == 0 {
		t.Error("every draw had an empty answer: the comparison proves nothing")
	}
}

// TestParamGenCitiesHaveCustomers guards Q4 against drawing a city no
// customer lives in (it would silently return 0): the generator's city
// list is datagen's, and at SF 0.05 every entry is populated.
func TestParamGenCitiesHaveCustomers(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 1234})
	lives := map[string]bool{}
	for _, c := range ds.Customers {
		city, _ := c.MustObject().Get("city")
		lives[city.MustString()] = true
	}
	for _, city := range datagen.Cities {
		if !lives[city] {
			t.Errorf("no customer lives in %s", city)
		}
	}
	gen := NewParamGen(InfoOf(ds), 1, 0)
	for i := 0; i < 200; i++ {
		if city := gen.Next().City; !lives[city] {
			t.Fatalf("draw %d: city %q has no customer", i, city)
		}
	}
}

func TestQueriesReturnWork(t *testing.T) {
	fx := newFixture(t, 0.04)
	lat, counts, err := RunQueriesOnce(fx.uni, fx.info, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 13 || len(counts) != 13 {
		t.Fatalf("expected 13 queries, got %d/%d", len(lat), len(counts))
	}
	// Structural sanity: the dataset guarantees these queries find data.
	if counts[Q3] == 0 {
		t.Error("Q3 found no rated products")
	}
	if counts[Q5] == 0 {
		t.Error("Q5 found no currencies")
	}
	if counts[Q8] == 0 {
		t.Error("Q8 found no cities")
	}
	if counts[Q9] == 0 {
		t.Error("Q9 found no influencer feedback")
	}
	if counts[Q13] == 0 {
		t.Error("Q13 found no top-spender cities")
	}
}

// TestProjectedQueriesRepeatFromCache pins that on a quiet DB a repeated
// Q3, Q8, Q9, Q12 or Q13 scans nothing: its column projections (and
// Q13's top-N join) come from the join cache, so the repeat adds two
// cache hits — one for Q9, whose only projection is its edge-end seed —
// and no builds or probes; and that a repeated Q4, Q5, Q7 or Q11, even
// with other Where values, builds nothing.
func TestProjectedQueriesRepeatFromCache(t *testing.T) {
	fx := newFixture(t, 0.05)
	p := NewParamGen(fx.info, 3, 0).Next()
	for _, q := range []QueryID{Q3, Q8, Q9, Q12, Q13} {
		first, err := fx.uni.RunQuery(q, p)
		if err != nil {
			t.Fatal(err)
		}
		before := fx.uni.DB.JoinStats()
		again, err := fx.uni.RunQuery(q, p)
		if err != nil {
			t.Fatal(err)
		}
		after := fx.uni.DB.JoinStats()
		want := before
		if want.CacheHits += 2; q == Q9 {
			want.CacheHits--
		}
		if after != want || again != first {
			t.Errorf("%s repeated: %d rows (first %d), join stats %+v -> %+v, want %+v", q, again, first, before, after, want)
		}
	}
	// Q4, Q5, Q7 and Q11 filter with a Where whose values stay out of the
	// projection cache keys: a repeat, and a second draw with another
	// city, product and customer, build nothing.
	gen := NewParamGen(fx.info, 5, 0)
	p2 := gen.Next()
	for p2.City == p.City || p2.ProductID == p.ProductID || p2.CustomerID == p.CustomerID {
		p2 = gen.Next()
	}
	for _, q := range []QueryID{Q4, Q5, Q7, Q11} {
		first, err := fx.uni.RunQuery(q, p)
		if err != nil {
			t.Fatal(err)
		}
		before := fx.uni.DB.JoinStats()
		again, err := fx.uni.RunQuery(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.uni.RunQuery(q, p2); err != nil {
			t.Fatal(err)
		}
		if after := fx.uni.DB.JoinStats(); after.Builds != before.Builds || after.CacheHits <= before.CacheHits || again != first {
			t.Errorf("%s repeated and redrawn: %d rows (first %d), join stats %+v -> %+v, want no builds", q, again, first, before, after)
		}
	}
}

func TestOrderUpdateT1AllModels(t *testing.T) {
	fx := newFixture(t, 0.02)
	oid := datagen.OrderID(1)
	before, _ := fx.uni.DB.Docs.Collection("orders").Get(nil, oid)
	beforeTotal, _ := before.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
	p := Params{OrderID: oid, Rating: 5}
	if err := fx.uni.OrderUpdate(p); err != nil {
		t.Fatal(err)
	}
	after, _ := fx.uni.DB.Docs.Collection("orders").Get(nil, oid)
	obj := after.MustObject()
	afterTotal, _ := obj.GetOr("total", mmvalue.Float(0)).AsFloat()
	if afterTotal <= beforeTotal {
		t.Error("total not incremented")
	}
	if st, _ := obj.Get("status"); !mmvalue.Equal(st, mmvalue.String("updated")) {
		t.Error("status not updated")
	}
	// Invoice mirrors the new total.
	inv, _ := fx.uni.DB.XML.Get(nil, oid)
	tot, _ := inv.FirstChild("total")
	if tot.InnerText() == "" {
		t.Fatal("invoice total missing")
	}
	torn, err := fx.uni.SnapshotRead(p)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("unified engine produced a torn state after T1")
	}
	// Feedback written.
	cidV, _ := obj.Get("customer_id")
	key := datagen.FeedbackKey(int(cidV.MustInt()), oid)
	if _, ok := fx.uni.DB.KV.Get(nil, key); !ok {
		t.Error("feedback not written")
	}
	// Missing order errors.
	if err := fx.uni.OrderUpdate(Params{OrderID: "o-missing", Rating: 1}); err == nil {
		t.Error("T1 on missing order should fail")
	}
}

func TestNewOrderT2(t *testing.T) {
	fx := newFixture(t, 0.02)
	p := Params{CustomerID: 1, ProductID: datagen.ProductID(1), FreshID: "o-new-001"}
	if err := fx.uni.NewOrder(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := fx.uni.DB.Docs.Collection("orders").Get(nil, "o-new-001"); !ok {
		t.Error("order doc missing")
	}
	if _, ok := fx.uni.DB.XML.Get(nil, "o-new-001"); !ok {
		t.Error("invoice missing")
	}
	if _, ok := fx.uni.DB.Graph.GetEdge(nil, "buy-o-new-001"); !ok {
		t.Error("purchase edge missing")
	}
	// Duplicate id fails and rolls back everything.
	if err := fx.uni.NewOrder(p); err == nil {
		t.Error("duplicate T2 should fail")
	}
	// Same op works on the federation.
	if err := fx.fed.NewOrder(Params{CustomerID: 1, ProductID: datagen.ProductID(1), FreshID: "o-new-002"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fx.fed.F.XML.Get(nil, "o-new-002"); !ok {
		t.Error("federation invoice missing")
	}
}

func TestWriteFeedbackT3(t *testing.T) {
	fx := newFixture(t, 0.02)
	oid := datagen.OrderID(2)
	if err := fx.uni.WriteFeedback(Params{OrderID: oid, Rating: 3}); err != nil {
		t.Fatal(err)
	}
	doc, _ := fx.uni.DB.Docs.Collection("orders").Get(nil, oid)
	if st, _ := doc.MustObject().Get("status"); !mmvalue.Equal(st, mmvalue.String("reviewed")) {
		t.Error("order not marked reviewed")
	}
}

func TestRunMixBothEngines(t *testing.T) {
	fx := newFixture(t, 0.02)
	cfg := DriverConfig{Clients: 4, OpsPerClient: 25, Theta: 0.5, Seed: 5}
	for _, e := range []Engine{fx.uni, fx.fed} {
		res := RunMix(e, fx.info, StandardMix(e), cfg)
		if res.Ops != 100 {
			t.Errorf("%s ops = %d", e.Name(), res.Ops)
		}
		if res.Errors > res.Ops/4 {
			t.Errorf("%s error rate too high: %d/%d", e.Name(), res.Errors, res.Ops)
		}
		if res.Throughput <= 0 {
			t.Errorf("%s throughput = %g", e.Name(), res.Throughput)
		}
		if res.Latency.Count() != res.Ops {
			t.Errorf("%s latency samples = %d", e.Name(), res.Latency.Count())
		}
		total := int64(0)
		for _, h := range res.PerOp {
			total += h.Service.Count()
		}
		if total != res.Ops {
			t.Errorf("%s per-op histograms sum to %d", e.Name(), total)
		}
	}
}

// TestRunMixRepeatNoDuplicateFreshIDs is the regression test for the
// FreshID-reuse bug: back-to-back RunMix calls on the same loaded
// engine used to re-stamp the same order ids (closed loop repeated
// (client, seq) verbatim; the open loop stamped every op (0, seq)), so
// every run after the first inflated T2 duplicate-key errors — exactly
// what a rate sweep does. With the per-run nonce, the second run (and
// a mode switch) must insert cleanly.
func TestRunMixRepeatNoDuplicateFreshIDs(t *testing.T) {
	fx := newFixture(t, 0.02)
	t2Only := []MixItem{{Name: "T2", Weight: 1, Run: fx.uni.NewOrder}}
	closed := DriverConfig{Clients: 2, OpsPerClient: 20, Seed: 5}
	for run := 1; run <= 2; run++ {
		res := RunMix(fx.uni, fx.info, t2Only, closed)
		if res.Errors != 0 {
			t.Fatalf("closed-loop run %d: %d errors (duplicate FreshIDs?)", run, res.Errors)
		}
	}
	open := closed
	open.Mode = ModeOpen
	open.RateOpsPerSec = 5000
	for run := 1; run <= 2; run++ {
		res := RunMix(fx.uni, fx.info, t2Only, open)
		if res.Errors != 0 {
			t.Fatalf("open-loop run %d: %d errors (duplicate FreshIDs?)", run, res.Errors)
		}
	}
}

func TestRunContention(t *testing.T) {
	fx := newFixture(t, 0.02)
	res := RunContention(fx.uni, fx.info, DriverConfig{Clients: 4, OpsPerClient: 30, Theta: 1.2, Seed: 2})
	if res.Attempts != 120 {
		t.Errorf("attempts = %d", res.Attempts)
	}
	if res.Committed == 0 {
		t.Error("nothing committed under contention")
	}
	if res.AbortRate < 0 || res.AbortRate > 1 {
		t.Errorf("abort rate = %g", res.AbortRate)
	}
	// All committed attempts really happened: stock decremented overall.
	if res.Committed+int64(res.AbortRate*float64(res.Attempts)+0.5) != res.Attempts {
		t.Errorf("commit + abort should equal attempts: %d + %.0f != %d",
			res.Committed, res.AbortRate*float64(res.Attempts), res.Attempts)
	}
}

func TestStockTransferConservation(t *testing.T) {
	// Invariant: transfers move stock between products, so the total
	// stock across all products is preserved — even under concurrency
	// with deadlock aborts (aborted transfers must change nothing).
	fx := newFixture(t, 0.02)
	sumStock := func() int64 {
		var sum int64
		for _, d := range fx.uni.DB.Docs.Collection("products").Find(nil, nil) {
			s, _ := d.MustObject().GetOr("stock", mmvalue.Int(0)).AsFloat()
			sum += int64(s)
		}
		return sum
	}
	before := sumStock()
	res := RunContention(fx.uni, fx.info, DriverConfig{Clients: 6, OpsPerClient: 40, Theta: 1.2, Seed: 4})
	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
	if got := sumStock(); got != before {
		t.Fatalf("stock not conserved: %d -> %d (aborted transfers leaked?)", before, got)
	}
}

func TestStockTransferOnceMovesStock(t *testing.T) {
	fx := newFixture(t, 0.02)
	p1, p2 := datagen.ProductID(1), datagen.ProductID(2)
	get := func(id string) int64 {
		d, _ := fx.uni.DB.Docs.Collection("products").Get(nil, id)
		s, _ := d.MustObject().GetOr("stock", mmvalue.Int(0)).AsFloat()
		return int64(s)
	}
	b1, b2 := get(p1), get(p2)
	if err := fx.uni.StockTransferOnce(Params{ProductID: p1, ProductID2: p2}); err != nil {
		t.Fatal(err)
	}
	if get(p1) != b1-1 || get(p2) != b2+1 {
		t.Errorf("transfer wrong: %d->%d, %d->%d", b1, get(p1), b2, get(p2))
	}
	// Same-product transfer is a net no-op on the pair invariant.
	if err := fx.uni.StockTransferOnce(Params{ProductID: p1, ProductID2: p1}); err != nil {
		t.Fatal(err)
	}
	if get(p1) != b1-2 {
		t.Errorf("self transfer should only decrement once")
	}
	// Federation path too.
	if err := fx.fed.StockTransferOnce(Params{ProductID: p1, ProductID2: p2}); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedEngineNeverTorn(t *testing.T) {
	fx := newFixture(t, 0.02)
	res := RunTornReadProbe(fx.uni, fx.info, DriverConfig{Clients: 6, OpsPerClient: 40, Theta: 1.0, Seed: 3})
	if res.Reads == 0 {
		t.Fatal("no reads completed")
	}
	if res.Torn != 0 {
		t.Errorf("unified engine produced %d torn reads out of %d", res.Torn, res.Reads)
	}
}

func TestSnapshotReadDetectsInjectedTorn(t *testing.T) {
	// Sanity check of the torn detector itself: manually desync the
	// order document and the invoice in the federation and observe a
	// torn read.
	fx := newFixture(t, 0.02)
	oid := datagen.OrderID(3)
	err := fx.fed.F.Docs.Collection("orders").SetPath(nil, oid, "total", mmvalue.Float(12345))
	if err != nil {
		t.Fatal(err)
	}
	torn, err := fx.fed.SnapshotRead(Params{OrderID: oid})
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Error("detector missed an inconsistent doc/invoice pair")
	}
	// Repair the invoice; no longer torn.
	err = fx.fed.F.XML.Update(nil, oid, func(n *xmlstore.Node) (*xmlstore.Node, error) {
		totEl, _ := n.FirstChild("total")
		totEl.Children = []*xmlstore.Node{xmlstore.NewText("12345.00")}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	torn, _ = fx.fed.SnapshotRead(Params{OrderID: oid})
	if torn {
		t.Error("repaired pair should not be torn")
	}
}

func TestParamGenDeterminism(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	a := NewParamGen(info, 9, 0.9)
	b := NewParamGen(info, 9, 0.9)
	for i := 0; i < 50; i++ {
		pa, pb := a.Next(), b.Next()
		if pa != pb {
			t.Fatal("same seed must give same params")
		}
		if pa.CustomerID < 1 || pa.CustomerID > 100 {
			t.Fatalf("customer out of range: %d", pa.CustomerID)
		}
	}
	if a.NewOrderID(7, 1, 2) == a.NewOrderID(7, 1, 3) || a.NewOrderID(7, 1, 2) != b.NewOrderID(7, 1, 2) {
		t.Error("NewOrderID uniqueness/determinism wrong")
	}
	if a.NewOrderID(7, 1, 2) == a.NewOrderID(8, 1, 2) {
		t.Error("NewOrderID must differ across run nonces")
	}
}

func TestInfoOf(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 1})
	info := InfoOf(ds)
	if info.Customers != len(ds.Customers) || info.Orders != len(ds.Orders) || info.Products != len(ds.Products) {
		t.Error("InfoOf mismatch")
	}
}
