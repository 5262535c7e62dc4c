package udbms

import (
	"fmt"
	"math/rand"
	"testing"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// benchJoinDB builds nProbe probe docs and nBuild build docs with
// int keys in [0, nBuild/4), so every probe row matches ~4 documents.
func benchJoinDB(b *testing.B, nProbe, nBuild int, indexed bool) *DB {
	b.Helper()
	db := Open()
	rng := rand.New(rand.NewSource(1))
	keyDomain := nBuild / 4
	if keyDomain == 0 {
		keyDomain = 1
	}
	probe := db.Docs.Collection("probe")
	for i := 0; i < nProbe; i++ {
		if err := probe.Insert(nil, mmvalue.ObjectOf(
			"_id", fmt.Sprintf("p%05d", i),
			"cid", int64(rng.Intn(keyDomain)),
		)); err != nil {
			b.Fatal(err)
		}
	}
	build := db.Docs.Collection("build")
	for i := 0; i < nBuild; i++ {
		if err := build.Insert(nil, mmvalue.ObjectOf(
			"_id", fmt.Sprintf("b%05d", i),
			"cid", int64(rng.Intn(keyDomain)),
			"payload", fmt.Sprintf("v%06d", i),
		)); err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		if err := build.CreateIndex("cid"); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkPipelineJoin isolates the cross-model join: the streaming
// join over a column projection or index probes (Each terminal,
// zero-copy) at several shapes, plus the old nested-loop-with-clones
// strategy as the baseline. The plain leg repeats the join over an
// unchanged build side, so once the probe account has paid for a
// build it measures cache hits; the /cold leg commits one write to the
// build side between iterations, so every iteration takes the route a
// first join after a commit takes (index probes below probeBelow, a
// build at or above it). builds/op and probes/op report the route
// actually taken.
func BenchmarkPipelineJoin(b *testing.B) {
	shapes := []struct {
		name           string
		nProbe, nBuild int
		indexed        bool
	}{
		{"probe10/build1000/indexed", 10, 1000, true},   // probes cold, cache hits warm
		{"probe500/build1000/indexed", 500, 1000, true}, // build despite index
		{"probe500/build1000/scan", 500, 1000, false},   // build, no index
	}
	for _, sh := range shapes {
		db := benchJoinDB(b, sh.nProbe, sh.nBuild, sh.indexed)
		join := func(b *testing.B) {
			matched := 0
			err := db.Pipeline(nil).
				FromDocuments("probe", nil).
				JoinDocuments("build", "cid", "cid", "m").
				Each(func(r mmvalue.Value) bool {
					arr, _ := r.MustObject().GetOr("m", mmvalue.Null).AsArray()
					matched += len(arr)
					return true
				})
			if err != nil {
				b.Fatal(err)
			}
			if matched == 0 {
				b.Fatal("join matched nothing")
			}
		}
		routes := func(b *testing.B, before JoinStats) {
			after := db.JoinStats()
			b.ReportMetric(float64(after.Builds-before.Builds)/float64(b.N), "builds/op")
			b.ReportMetric(float64(after.ProbeRows-before.ProbeRows)/float64(b.N), "probes/op")
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			before := db.JoinStats()
			for i := 0; i < b.N; i++ {
				join(b)
			}
			routes(b, before)
		})
		b.Run(sh.name+"/cold", func(b *testing.B) {
			build := db.Docs.Collection("build")
			b.ReportAllocs()
			before := db.JoinStats()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := build.SetPath(nil, "b00000", "payload", mmvalue.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				join(b)
			}
			routes(b, before)
		})
		b.Run(sh.name+"/nestedloop-ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := db.Docs.Collection("probe").Find(nil, nil)
				rows = refJoinDocuments(db, rows, "build", "cid", "cid", "m")
				matched := 0
				for _, r := range rows {
					arr, _ := r.MustObject().GetOr("m", mmvalue.Null).AsArray()
					matched += len(arr)
				}
				if matched == 0 {
					b.Fatal("join matched nothing")
				}
			}
		})
	}
	// A one-row probe after a 4096-row join: the point query borrows the
	// pooled row buffers the big join grew, so this leg measures what
	// handing them back costs.
	b.Run("point/after-probe4096", func(b *testing.B) {
		big := benchJoinDB(b, 4096, 1000, true)
		if err := big.Docs.Collection("one").Insert(nil, mmvalue.ObjectOf("_id", "x", "cid", int64(0))); err != nil {
			b.Fatal(err)
		}
		run := func(from string) {
			err := big.Pipeline(nil).FromDocuments(from, nil).
				JoinDocuments("build", "cid", "cid", "m").
				Each(func(mmvalue.Value) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
		}
		run("probe")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run("one")
		}
	})
	// Q1's shape: one relational row gets its documents from the build
	// side and its key-value entries from a prefix seek, so the second
	// attach copies a row the first attach made.
	q1 := func(b *testing.B) (*DB, func()) {
		db := benchJoinDB(b, 0, 1000, true)
		cust, err := db.Relational.CreateTable("cust", relational.MustSchema("id",
			relational.Column{Name: "id", Type: relational.TypeInt}))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 250; i++ {
			if err := cust.Insert(nil, mmvalue.ObjectOf("id", i)); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if err := db.KV.Put(nil, fmt.Sprintf("fb/%06d/o%d", i, k), mmvalue.ObjectOf("rating", k)); err != nil {
					b.Fatal(err)
				}
			}
		}
		return db, func() {
			matched := 0
			err := db.Pipeline(nil).FromRelational("cust", relational.Col("id").Eq(7)).
				JoinDocuments("build", "id", "cid", "m").
				JoinKVPrefix(func(r mmvalue.Value) string {
					return fmt.Sprintf("fb/%06d/", r.MustObject().GetOr("id", mmvalue.Null).MustInt())
				}, "f").
				Each(func(r mmvalue.Value) bool {
					m, _ := r.MustObject().GetOr("m", mmvalue.Null).AsArray()
					f, _ := r.MustObject().GetOr("f", mmvalue.Null).AsArray()
					matched += len(m) + len(f)
					return true
				})
			if err != nil || matched == 0 {
				b.Fatalf("matched=%d err=%v", matched, err)
			}
		}
	}
	// Warm: the documents come from the cached column projection.
	b.Run("point/two-attach", func(b *testing.B) {
		db, run := q1(b)
		// Rent index probes until the account buys the build (probeBelow).
		for i := 0; i <= db.Pipeline(nil).probeBelow(1000); i++ {
			run()
		}
		b.ReportAllocs()
		before := db.JoinStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		if after := db.JoinStats(); after.Builds != before.Builds || after.ProbeRows != before.ProbeRows {
			b.Fatal("the warm leg missed the join cache")
		}
	})
	// Right after a commit to the build side, as Q1 runs in the OLTP
	// mix: the one probe row rents an index probe.
	b.Run("point/rented", func(b *testing.B) {
		db, run := q1(b)
		build := db.Docs.Collection("build")
		b.ReportAllocs()
		before := db.JoinStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := build.SetPath(nil, "b00000", "payload", mmvalue.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run()
		}
		if after := db.JoinStats(); after.Builds != before.Builds || after.ProbeRows-before.ProbeRows != uint64(b.N) {
			b.Fatal("the rented leg did not rent one probe per run")
		}
	})
}

// BenchmarkGroupBy measures the batch-native aggregation stage:
// 50k documents folded into ~a handful of groups with three
// accumulators each.
func BenchmarkGroupBy(b *testing.B) {
	db := benchJoinDB(b, 50000, 8, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Pipeline(nil).
			FromDocuments("probe", nil).
			GroupBy("cid", "k", Sum("cid", "s"), Count("c"), Max("_id", "mx")).
			Rows()
		if err != nil || len(rows) == 0 {
			b.Fatalf("groups=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkProjectedGroup runs the Q12 shape — 12 000 orders joined to
// 4 000 customers and summed by city, the sizes of the benchmark's SF 4 —
// over column projections and, as the reference, on rows (a seed filter
// that matches everything keeps the plan off the projected shape). The
// q3 legs run the Q3 shape over columns: 7 200 feedback pairs joined to
// their orders, unnested into line items and averaged per product, top
// 10. The q9 legs run the Q9 shape: the ends of 8 000 "knows" edges
// among 4 000 vertices counted per vertex, top 10 by degree. The where
// legs run the Q4 shape: the join keeps the orders of one city's
// customers by dict code before the fold sums them per customer. The
// xml legs run the Q5 shape: 12 000 invoices averaged per currency
// attribute, the totals parsed from their text once per projection. The
// groups legs run Q4 over four cities: ≈ 400 customer groups, each read
// by an Each that keeps no row. The q7 leg runs the Q7 shape: every
// order joined to its invoice and unnested into its ≈ 24 000 line items,
// the ≈ 20 of one product kept and folded per order. The topmax leg is a top 10 by the
// largest order of each customer (Max), descending. The /warm
// legs repeat over unchanged stores, so the column projections, the
// join's included, come from the join cache; the /cold legs commit one
// write to every store between iterations, so every iteration projects
// afresh. A cold projected run costing no more than a cold
// row run is the evidence that a cache miss is no slower than before.
func BenchmarkProjectedGroup(b *testing.B) {
	db := Open()
	orders := db.Docs.Collection("orders")
	cust, err := db.Relational.CreateTable("cust", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "city", Type: relational.TypeString},
	))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := db.Manager().Bulk(12000, func(tx *txn.Tx, i int) error {
		items := make([]any, 1+rng.Intn(3))
		for k := range items {
			items[k] = map[string]any{"pid": fmt.Sprintf("p%04d", rng.Intn(1200)), "qty": 1}
		}
		cid := rng.Intn(4000)
		if i%10 < 6 {
			if err := db.KV.Put(tx, fmt.Sprintf("feedback/%06d/o%05d", cid, i), mmvalue.ObjectOf("rating", 1+rng.Intn(5))); err != nil {
				return err
			}
		}
		total := float64(rng.Intn(100000)) / 100
		inv := xmlstore.NewElement("invoice", xmlstore.Attr{Name: "currency", Value: []string{"EUR", "USD", "SEK", "NOK"}[i%4]})
		inv.Append(xmlstore.NewElement("total").Append(xmlstore.NewText(fmt.Sprintf("%.2f", total))))
		if err := db.XML.Put(tx, fmt.Sprintf("o%05d", i), inv); err != nil {
			return err
		}
		return orders.Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("o%05d", i),
			"cid", cid, "total", total, "items", items))
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.Manager().Bulk(4000, func(tx *txn.Tx, i int) error {
		return cust.Insert(tx, mmvalue.ObjectOf("id", i, "city", fmt.Sprintf("city%02d", i%40)))
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.Manager().Bulk(4000, func(tx *txn.Tx, i int) error {
		return db.Graph.AddVertex(tx, graph.VID(fmt.Sprintf("c%d", i)), "customer", mmvalue.Null)
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.Manager().Bulk(8000, func(tx *txn.Tx, i int) error {
		from, to := graph.VID(fmt.Sprintf("c%d", rng.Intn(4000))), graph.VID(fmt.Sprintf("c%d", rng.Intn(4000)))
		return db.Graph.AddEdge(tx, graph.EID(fmt.Sprintf("k%d", i)), "knows", from, to, mmvalue.Null)
	}); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, seed document.Filter) {
		groups := 0
		err := db.Pipeline(nil).FromDocuments("orders", seed).
			JoinRelational("cust", "cid", "id", "c").
			GroupBy("c.0.city", "city", Sum("total", "revenue")).
			Each(func(mmvalue.Value) bool { groups++; return true })
		if err != nil || groups != 40 {
			b.Fatalf("groups=%d err=%v", groups, err)
		}
	}
	q3 := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromKVPrefix("feedback/", "cid", "oid").
			JoinDocuments("orders", "oid", "_id", "o").
			Unnest("o.0.items", "item").
			GroupBy("item.pid", "pid", Avg("value.rating", "rating")).
			SortBy("rating", true).
			Limit(10).
			Count()
		if err != nil || n != 10 {
			b.Fatalf("products=%d err=%v", n, err)
		}
	}
	q9 := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromEdgeEnds("knows", "v").
			GroupBy("v", "v", Count("degree")).
			SortBy("degree", true).
			Limit(10).
			Count()
		if err != nil || n != 10 {
			b.Fatalf("vertices=%d err=%v", n, err)
		}
	}
	where := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromDocuments("orders", nil).
			JoinRelational("cust", "cid", "id", "c").
			Where("c.0.city", "city07").
			GroupBy("cid", "cid", Sum("total", "spent")).
			Count()
		if err != nil || n == 0 || n > 100 {
			b.Fatalf("customers=%d err=%v", n, err)
		}
	}
	groups := func(b *testing.B, _ document.Filter) {
		n, spent := 0, 0.0
		err := db.Pipeline(nil).FromDocuments("orders", nil).
			JoinRelational("cust", "cid", "id", "c").
			Where("c.0.city", "city03", "city14", "city25", "city36").
			GroupBy("cid", "cid", Sum("total", "spent")).
			Each(func(r mmvalue.Value) bool {
				f, _ := r.MustObject().GetOr("spent", mmvalue.Null).AsFloat()
				n, spent = n+1, spent+f
				return true
			})
		if err != nil || n < 300 || spent <= 0 {
			b.Fatalf("customers=%d err=%v", n, err)
		}
	}
	q7 := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromDocuments("orders", nil).
			JoinXML("_id", "_inv").
			Unnest("items", "item").
			Where("item.pid", "p0042").
			GroupBy("_id", "oid", Max("_inv.0.total", "total")).
			Count()
		if err != nil || n == 0 || n > 100 {
			b.Fatalf("orders=%d err=%v", n, err)
		}
	}
	topMax := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromDocuments("orders", nil).
			GroupBy("cid", "cid", Max("total", "high")).
			SortBy("high", true).
			Limit(10).
			Count()
		if err != nil || n != 10 {
			b.Fatalf("customers=%d err=%v", n, err)
		}
	}
	xml := func(b *testing.B, _ document.Filter) {
		n, err := db.Pipeline(nil).FromXML().GroupBy("@currency", "currency", Avg("total", "avg")).Count()
		if err != nil || n != 4 {
			b.Fatalf("currencies=%d err=%v", n, err)
		}
	}
	for _, leg := range []struct {
		name string
		seed document.Filter
		cold bool
		run  func(*testing.B, document.Filter)
	}{
		{"warm", nil, false, run},
		{"cold", nil, true, run},
		{"rows/warm", document.Everything(), false, run},
		{"rows/cold", document.Everything(), true, run},
		{"q3/warm", nil, false, q3},
		{"q3/cold", nil, true, q3},
		{"q9/warm", nil, false, q9},
		{"q9/cold", nil, true, q9},
		{"where/warm", nil, false, where},
		{"where/cold", nil, true, where},
		{"xml/warm", nil, false, xml},
		{"xml/cold", nil, true, xml},
		{"groups/warm", nil, false, groups},
		{"groups/cold", nil, true, groups},
		{"q7/warm", nil, false, q7},
		{"topmax/warm", nil, false, topMax},
	} {
		b.Run(leg.name, func(b *testing.B) {
			leg.run(b, leg.seed)
			b.ReportAllocs()
			before := db.JoinStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if leg.cold {
					b.StopTimer()
					if err := db.RunTx(func(tx *txn.Tx) error {
						if err := orders.SetPath(tx, "o00000", "status", mmvalue.Int(int64(i))); err != nil {
							return err
						}
						if err := db.KV.Put(tx, "feedback/000000/o00000", mmvalue.ObjectOf("rating", 1+i%5)); err != nil {
							return err
						}
						if err := db.Graph.SetVertexProps(tx, "c0", func(props mmvalue.Value) (mmvalue.Value, error) { return props, nil }); err != nil {
							return err
						}
						if err := db.XML.Update(tx, "o00000", func(n *xmlstore.Node) (*xmlstore.Node, error) { return n, nil }); err != nil {
							return err
						}
						return setFields(cust, tx, 0)
					}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				leg.run(b, leg.seed)
			}
			b.ReportMetric(float64(db.JoinStats().Builds-before.Builds)/float64(b.N), "builds/op")
		})
	}
}
