package udbms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// projMode picks the kinds of projDB's data, and so whether the
// projected plans may run over columns.
type projMode int

const (
	projInt   projMode = iota // int join keys
	projStr                   // string join keys
	projCross                 // int probe keys, float build keys
	projMixed                 // one int total among floats
)

// projDB builds an "orders" collection {cid, total, paid}, a "custtab"
// table and a "custdocs" collection {ref.cid, city, score}. Every field
// may be null or missing; build keys repeat and some probe keys match
// nothing; totals go negative and now and then NaN; paid is a bool.
func projDB(t *testing.T, rng *rand.Rand, mode projMode) *DB {
	t.Helper()
	key := func(k int) mmvalue.Value {
		if mode == projStr {
			return mmvalue.String(fmt.Sprintf("k%d", k))
		}
		return mmvalue.Int(int64(k))
	}
	buildKey, keyType := key, relational.TypeInt
	switch mode {
	case projStr:
		keyType = relational.TypeString
	case projCross:
		buildKey = func(k int) mmvalue.Value { return mmvalue.Float(float64(k)) }
		keyType = relational.TypeFloat
	}
	maybe := func(o *mmvalue.Object, field string, v mmvalue.Value) {
		switch rng.Intn(8) {
		case 0:
			o.Set(field, mmvalue.Null)
		case 1: // missing
		default:
			o.Set(field, v)
		}
	}
	db := Open()
	orders := db.Docs.Collection("orders")
	for i := 0; i < 150+rng.Intn(150); i++ {
		o := mmvalue.NewObject()
		o.Set("_id", mmvalue.String(fmt.Sprintf("o%04d", i)))
		maybe(o, "cid", key(rng.Intn(20)))
		total := mmvalue.Float(float64(rng.Intn(2000)-500) / 7)
		if rng.Intn(40) == 0 {
			total = mmvalue.Float(math.NaN())
		}
		maybe(o, "total", total)
		if mode == projMixed && i == 7 {
			o.Set("total", mmvalue.Int(3))
		}
		if i%5 > 0 {
			o.Set("paid", mmvalue.Bool(i%3 == 0))
		}
		if err := orders.Insert(nil, mmvalue.FromObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.Relational.CreateTable("custtab", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "cid", Type: keyType, Nullable: true},
		relational.Column{Name: "city", Type: relational.TypeString, Nullable: true},
		relational.Column{Name: "score", Type: relational.TypeInt, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	docs := db.Docs.Collection("custdocs")
	for i := 0; i < 40+rng.Intn(40); i++ {
		k := buildKey(rng.Intn(15)) // probe keys 15..19 match nothing
		city := mmvalue.String(fmt.Sprintf("c%d", rng.Intn(6)))
		score := mmvalue.Int(int64(rng.Intn(100)))
		row, d, ref := mmvalue.NewObject(), mmvalue.NewObject(), mmvalue.NewObject()
		row.Set("id", mmvalue.Int(int64(i)))
		d.Set("_id", mmvalue.String(fmt.Sprintf("d%04d", i)))
		d.Set("ref", mmvalue.FromObject(ref))
		maybe(row, "cid", k)
		maybe(ref, "cid", k)
		for _, o := range []*mmvalue.Object{row, d} {
			maybe(o, "city", city)
			maybe(o, "score", score)
		}
		if err := tbl.Insert(nil, mmvalue.FromObject(row)); err != nil {
			t.Fatal(err)
		}
		if err := docs.Insert(nil, mmvalue.FromObject(d)); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 { // the row path then rents index probes
		if err := tbl.CreateIndex("cid"); err != nil {
			t.Fatal(err)
		}
		if err := docs.CreateIndex("ref.cid"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// projPlanCase is a plan of the projected shape with its reference: the
// joins and the group-by applied to materialized order rows.
type projPlanCase struct {
	name   string
	onRows bool // the plan lacks the shape
	build  func(p *Pipeline) *Pipeline
	refRow func(db *DB, rows []mmvalue.Value) []mmvalue.Value
}

// projPlans draws the aggregates at random; every plan sums total. The
// bool key, the object key (a custdocs ref) and the Max over the
// orders' items (arrays among strings, from projKVData) read value
// columns. The whole row a join extended is a key only on rows.
func projPlans(rng *rand.Rand) []projPlanCase {
	aggs := []Agg{Sum("total", "s"), Count("n")}
	for _, a := range []Agg{Avg("total", "av"), Max("total", "mt"), Max("c.0.score", "mx"), Max("d.0.city", "mc")} {
		if rng.Intn(2) == 0 {
			aggs = append(aggs, a)
		}
	}
	arrayMax := append(slices.Clip(aggs), Max("items", "mi"))
	var cases []projPlanCase
	for _, c := range []struct {
		name          string
		key           string
		rel, doc, top bool
		aggs          []Agg
	}{
		{"seed key", "cid", false, false, false, aggs},
		{"relational city", "c.0.city", true, false, false, aggs},
		{"document city", "d.0.city", false, true, false, aggs},
		{"both joins", "c.0.city", true, true, false, aggs},
		{"relational score, top 3", "c.0.score", true, false, true, aggs},
		{"second match", "c.1.city", true, false, false, aggs},
		{"bool key", "paid", false, false, false, aggs},
		{"object key", "d.0.ref", false, true, false, aggs},
		{"array max", "cid", false, false, false, arrayMax},
		{"array max, second match", "c.1.city", true, false, false, arrayMax},
		{"whole row key", "", true, false, false, aggs},
	} {
		aggs := c.aggs
		cases = append(cases, projPlanCase{
			name:   c.name,
			onRows: c.key == "c.1.city" || c.key == "",
			build: func(p *Pipeline) *Pipeline {
				p = p.FromDocuments("orders", nil)
				if c.rel {
					p = p.JoinRelational("custtab", "cid", "cid", "c")
				}
				if c.doc {
					p = p.JoinDocuments("custdocs", "cid", "ref.cid", "d")
				}
				if p = p.GroupBy(c.key, "k", aggs...); c.top {
					p = p.SortBy("s", true).Limit(3)
				}
				return p
			},
			refRow: func(db *DB, rows []mmvalue.Value) []mmvalue.Value {
				if c.rel {
					rows = refJoinRelational(db, rows, "custtab", "cid", "cid", "c")
				}
				if c.doc {
					rows = refJoinDocuments(db, rows, "custdocs", "cid", "ref.cid", "d")
				}
				if rows = refGroupBy(rows, mmvalue.ParsePath(c.key), "k", aggs); c.top {
					rows = refSort(rows, mmvalue.ParsePath("s"), true)[:min(3, len(rows))]
				}
				return rows
			},
		})
	}
	return cases
}

// projKVData gives projDB's orders line items {pid, qty} and adds
// feedback pairs "fb/<cid>/<oid>" -> {r}. Items may be empty, not an
// array or missing, an element may lack pid or not be an object, and a
// rating may be null or missing; some keys have another shape or name
// no order. In projMixed mode one qty is a float among ints.
func projKVData(t *testing.T, db *DB, rng *rand.Rand, mode projMode) {
	t.Helper()
	orders := db.Docs.Collection("orders")
	put := func(key string, fb *mmvalue.Object) {
		if err := db.KV.Put(nil, key, mmvalue.FromObject(fb)); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range orders.Find(nil, nil) {
		id := o.MustObject().GetOr("_id", mmvalue.Null).MustString()
		var items mmvalue.Value
		switch rng.Intn(8) {
		case 0:
			items = mmvalue.Array()
		case 1:
			items = mmvalue.String("none")
		case 2: // missing
		default:
			elems := make([]mmvalue.Value, 1+rng.Intn(3))
			for e := range elems {
				el := mmvalue.NewObject()
				if rng.Intn(6) > 0 {
					el.Set("pid", mmvalue.String(fmt.Sprintf("p%d", rng.Intn(12))))
				}
				el.Set("qty", mmvalue.Int(int64(rng.Intn(5))))
				if elems[e] = mmvalue.FromObject(el); rng.Intn(10) == 0 {
					elems[e] = mmvalue.Int(7)
				}
			}
			items = mmvalue.Array(elems...)
		}
		if mode == projMixed && id == "o0000" {
			items = mmvalue.Array(mmvalue.ObjectOf("pid", "p1", "qty", 2.5))
		}
		if items.Kind() != mmvalue.KindNull {
			if err := orders.SetPath(nil, id, "items", items); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(10) < 7 || id == "o0000" {
			fb := mmvalue.NewObject()
			maybe := rng.Intn(8)
			if maybe > 0 {
				fb.Set("r", mmvalue.Int(int64(1+rng.Intn(5))))
			}
			if maybe == 1 {
				fb.Set("r", mmvalue.Null)
			}
			put(fmt.Sprintf("fb/%d/%s", rng.Intn(20), id), fb)
		}
	}
	for _, key := range []string{"fb/x", "fb/1/o0001/extra", "fb/2/o9999", "fa/1/o0001", "fb//o0002"} {
		put(key, mmvalue.ObjectOf("r", 5).MustObject())
	}
}

// refKVAt is FromKVPrefix("fb/", "cid", "oid") under tx.
func refKVAt(db *DB, tx *txn.Tx) []mmvalue.Value {
	var rows []mmvalue.Value
	db.KV.ScanPrefix(tx, "fb/", func(key string, v mmvalue.Value) bool {
		if parts := strings.Split(strings.TrimPrefix(key, "fb/"), "/"); len(parts) == 2 {
			rows = append(rows, mmvalue.ObjectOf("cid", parts[0], "oid", parts[1], "value", v))
		}
		return true
	})
	return rows
}

// refKVOrdersAt is refKVAt joined to its order as "o" and unnested at
// "o.0.items" as "it", row at a time under tx.
func refKVOrdersAt(db *DB, tx *txn.Tx) []mmvalue.Value {
	var rows []mmvalue.Value
	for _, row := range refKVAt(db, tx) {
		var o []mmvalue.Value
		if doc, ok := db.Docs.Collection("orders").Get(tx, row.MustObject().GetOr("oid", mmvalue.Null).MustString()); ok {
			o = append(o, doc)
		}
		row.MustObject().Set("o", mmvalue.Array(o...))
		items, _ := mmvalue.ParsePath("o.0.items").LookupOr(row, mmvalue.Null).AsArray()
		for _, it := range items {
			r := row.Clone()
			r.MustObject().Set("it", it)
			rows = append(rows, r)
		}
	}
	return rows
}

// projKVPlans are the key-value seed and Unnest plans over projKVData.
func projKVPlans() []projPlanCase {
	aggs := []Agg{Avg("value.r", "av"), Count("n"), Sum("it.qty", "s"), Max("it.pid", "mx"), Max("cid", "mc")}
	joined := func(p *Pipeline) *Pipeline {
		return p.FromKVPrefix("fb/", "cid", "oid").JoinDocuments("orders", "oid", "_id", "o").Unnest("o.0.items", "it")
	}
	return []projPlanCase{
		{
			name: "kv seed key",
			build: func(p *Pipeline) *Pipeline {
				return p.FromKVPrefix("fb/", "cid", "oid").GroupBy("cid", "k", aggs[:2]...)
			},
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refKVAt(db, nil), mmvalue.Path{"cid"}, "k", aggs[:2])
			},
		},
		{
			name: "kv key-part subpath, whole row",
			build: func(p *Pipeline) *Pipeline {
				return p.FromKVPrefix("fb/", "cid", "oid").GroupBy("oid.x", "k", Max("", "mr"), Max("cid.0", "mc"), Max("value", "mv"), Count("n"))
			},
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refKVAt(db, nil), mmvalue.ParsePath("oid.x"), "k", []Agg{Max("", "mr"), Max("cid.0", "mc"), Max("value", "mv"), Count("n")})
			},
		},
		{
			name:  "kv join unnest",
			build: func(p *Pipeline) *Pipeline { return joined(p).GroupBy("it.pid", "k", aggs...) },
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refKVOrdersAt(db, nil), mmvalue.ParsePath("it.pid"), "k", aggs)
			},
		},
		{
			name: "kv join unnest, top 3",
			build: func(p *Pipeline) *Pipeline {
				return joined(p).GroupBy("it.pid", "k", aggs...).SortBy("av", true).Limit(3)
			},
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				rows := refGroupBy(refKVOrdersAt(db, nil), mmvalue.ParsePath("it.pid"), "k", aggs)
				return refSort(rows, mmvalue.Path{"av"}, true)[:min(3, len(rows))]
			},
		},
		{
			name: "seed unnest",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).Unnest("items", "it").GroupBy("it.pid", "k", aggs[1:4]...)
			},
			refRow: func(_ *DB, orders []mmvalue.Value) []mmvalue.Value {
				var rows []mmvalue.Value
				for _, o := range orders {
					items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
					for _, it := range items {
						r := o.Clone()
						r.MustObject().Set("it", it)
						rows = append(rows, r)
					}
				}
				return refGroupBy(rows, mmvalue.ParsePath("it.pid"), "k", aggs[1:4])
			},
		},
	}
}

// projGraphData gives the graph vertices v00..v29, some isolated, and
// random "knows" edges among them, self-loops included, with "other"
// edges beside them, some doubled by an edge back the other way.
func projGraphData(t *testing.T, db *DB, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 30; i++ {
		if err := db.Graph.AddVertex(nil, graph.VID(fmt.Sprintf("v%02d", i)), "n", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	vertex := func() graph.VID { return graph.VID(fmt.Sprintf("v%02d", rng.Intn(25))) } // v25..v29 stay isolated
	for i := 0; i < 60+rng.Intn(60); i++ {
		label, from, to := "knows", vertex(), vertex()
		switch rng.Intn(8) {
		case 0:
			to = from
		case 1:
			label = "other"
		}
		if err := db.Graph.AddEdge(nil, graph.EID(fmt.Sprintf("e%03d", i)), label, from, to, mmvalue.Null); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(6) == 0 {
			if err := db.Graph.AddEdge(nil, graph.EID(fmt.Sprintf("b%03d", i)), label, to, from, mmvalue.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refEdgeEndsAt is FromEdgeEnds(label, "v") under tx, read edge by edge
// off the store's edge records rather than a CSR.
func refEdgeEndsAt(db *DB, tx *txn.Tx, label string) []mmvalue.Value {
	var rows []mmvalue.Value
	db.Graph.EachEdge(tx, label, func(e *graph.Edge) bool {
		rows = append(rows, mmvalue.ObjectOf("v", string(e.From)), mmvalue.ObjectOf("v", string(e.To)))
		return true
	})
	return rows
}

// projGraphPlans are the edge-end seed plans over projGraphData: counts
// per vertex, plain and top 3 (where degree ties abound), with a second
// aggregate, and over a label no edge has; and one that runs on rows.
func projGraphPlans() []projPlanCase {
	count, both := []Agg{Count("n")}, []Agg{Count("n"), Max("v", "mx")}
	plan := func(label string, aggs []Agg, top bool) projPlanCase {
		return projPlanCase{
			name: fmt.Sprintf("edge ends %s %d aggs top %v", label, len(aggs), top),
			build: func(p *Pipeline) *Pipeline {
				if p = p.FromEdgeEnds(label, "v").GroupBy("v", "k", aggs...); top {
					p = p.SortBy("n", true).Limit(3)
				}
				return p
			},
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				rows := refGroupBy(refEdgeEndsAt(db, nil, label), mmvalue.Path{"v"}, "k", aggs)
				if top {
					rows = refSort(rows, mmvalue.Path{"n"}, true)[:min(3, len(rows))]
				}
				return rows
			},
		}
	}
	onRows := projPlanCase{ // a SortBy first keeps the plan on rows
		name:   "edge ends sorted, then grouped",
		onRows: true,
		build: func(p *Pipeline) *Pipeline {
			return p.FromEdgeEnds("knows", "v").SortBy("v", true).GroupBy("v", "k", both...)
		},
		refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
			return refGroupBy(refEdgeEndsAt(db, nil, "knows"), mmvalue.Path{"v"}, "k", both)
		},
	}
	return []projPlanCase{
		onRows,
		plan("knows", count, false),
		plan("knows", count, true),
		plan("knows", both, false),
		plan("knows", both, true),
		plan("none", count, false),
		plan("none", count, true),
	}
}

// TestProjectionMatchesRowPath runs the projected plans over random data
// and compares them with the row-at-a-time references. Every plan not
// marked onRows runs over columns: int and string join keys, float
// build keys against int probe keys (projCross), columns mixing ints
// and floats (projMixed), and bool, array and object values alike.
func TestProjectionMatchesRowPath(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		mode := projMode(seed % 4)
		rng := rand.New(rand.NewSource(seed))
		db := projDB(t, rng, mode)
		plans := projPlans(rng)
		projKVData(t, db, rng, mode)
		projGraphData(t, db, rng)
		for _, pc := range append(append(plans, projKVPlans()...), projGraphPlans()...) {
			label := fmt.Sprintf("seed %d mode %d %s", seed, mode, pc.name)
			want := pc.refRow(db, db.Docs.Collection("orders").Find(nil, nil))
			var got []mmvalue.Value
			ran := pc.build(db.Pipeline(nil)).runProjected(func(r mmvalue.Value) bool {
				got = append(got, r.Clone())
				return true
			})
			wantRan := !pc.onRows
			if ran != wantRan {
				t.Errorf("%s: ran over columns %v, want %v", label, ran, wantRan)
			}
			rows, err := pc.build(db.Pipeline(nil)).Rows()
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				got = rows
			}
			for _, g := range [][]mmvalue.Value{got, rows} {
				if fmt.Sprint(g) != fmt.Sprint(want) {
					t.Fatalf("%s:\n got  %v\n want %v", label, g, want)
				}
			}
		}
	}
}

// refOrdersAt is every order joined row at a time, under tx, to its
// custtab rows as "c" and its custdocs documents as "d".
func refOrdersAt(db *DB, tx *txn.Tx) []mmvalue.Value {
	tbl, _ := db.Relational.Table("custtab")
	docs := db.Docs.Collection("custdocs")
	rows := db.Docs.Collection("orders").Find(tx, nil)
	for _, r := range rows {
		o := r.MustObject()
		var c, d []mmvalue.Value
		if key := o.GetOr("cid", mmvalue.Null); !key.IsNull() {
			c = tbl.Query(tx).Where(relational.Col("cid").Eq(key)).Rows()
			d = docs.Find(tx, document.Eq("ref.cid", key))
		}
		o.Set("c", mmvalue.Array(c...))
		o.Set("d", mmvalue.Array(d...))
	}
	return rows
}

// TestProjectionUnderWriters is TestJoinRouteUnderWriters for a
// projected plan: two snapshot readers group orders by their customer's
// city over both joins while a writer moves join keys, cities and
// totals. Every answer must run over columns — built under the reader's
// snapshot or served from the cache — and equal the row-at-a-time
// reference under that snapshot. The readers also run a key-value seed
// → join → Unnest → group plan while the writer rates orders and
// rewrites their items, an edge-end → top-N group plan while it adds
// "knows" edges, and an XML seed plan and an orders → XML
// join plan while it rewrites invoices.
func TestProjectionUnderWriters(t *testing.T) {
	db := projDB(t, rand.New(rand.NewSource(11)), projInt)
	projKVData(t, db, rand.New(rand.NewSource(12)), projInt)
	projGraphData(t, db, rand.New(rand.NewSource(13)))
	projXMLData(t, db, rand.New(rand.NewSource(14)), projInt)
	tbl, _ := db.Relational.Table("custtab")
	docs, orders := db.Docs.Collection("custdocs"), db.Docs.Collection("orders")
	nBuild := tbl.Count()
	aggs := []Agg{Sum("total", "s"), Count("n"), Max("d.0.score", "mx")}
	plan := func(p *Pipeline) *Pipeline {
		return p.FromDocuments("orders", nil).
			JoinRelational("custtab", "cid", "cid", "c").
			JoinDocuments("custdocs", "cid", "ref.cid", "d").
			GroupBy("c.0.city", "k", aggs...)
	}
	kvAggs := []Agg{Avg("value.r", "av"), Count("n"), Sum("it.qty", "s")}
	kvPlan := func(p *Pipeline) *Pipeline {
		return p.FromKVPrefix("fb/", "cid", "oid").
			JoinDocuments("orders", "oid", "_id", "o").
			Unnest("o.0.items", "it").
			GroupBy("it.pid", "k", kvAggs...)
	}
	graphAggs := []Agg{Count("n")}
	graphPlan := func(p *Pipeline) *Pipeline {
		return p.FromEdgeEnds("knows", "v").GroupBy("v", "k", graphAggs...).SortBy("n", true).Limit(5)
	}
	xmlAggs := []Agg{Avg("total", "av"), Count("n")}
	xmlPlan := func(p *Pipeline) *Pipeline { return p.FromXML().GroupBy("@cur", "k", xmlAggs...) }
	invAggs := []Agg{Max("x.0.total", "t"), Count("n")}
	invPlan := func(p *Pipeline) *Pipeline {
		return p.FromDocuments("orders", nil).JoinXML("_id", "x").Where("x.0.@cur", "EUR", "USD").GroupBy("cid", "k", invAggs...)
	}
	before := db.JoinStats()

	stop := make(chan struct{})
	var writes int
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := db.RunTx(func(tx *txn.Tx) error {
				i := rng.Intn(nBuild)
				key := mmvalue.Int(int64(rng.Intn(20)))
				if rng.Intn(4) == 0 {
					key = mmvalue.Null
				}
				city := mmvalue.String(fmt.Sprintf("c%d", rng.Intn(6)))
				if err := setFields(tbl, tx, i, "cid", key, "city", city); err != nil {
					return err
				}
				if err := docs.SetPath(tx, fmt.Sprintf("d%04d", i), "ref.cid", key); err != nil {
					return err
				}
				if err := db.KV.Put(tx, fmt.Sprintf("fb/%d/o%04d", rng.Intn(20), rng.Intn(150)), mmvalue.ObjectOf("r", rng.Intn(5))); err != nil {
					return err
				}
				// Add a knows edge between one of 40 vertex pairs.
				w := rng.Intn(40)
				eid := graph.EID(fmt.Sprintf("w%05d", writes))
				if err := db.Graph.AddEdge(tx, eid, "knows", graph.VID(fmt.Sprintf("v%02d", w%30)),
					graph.VID(fmt.Sprintf("v%02d", w*7%30)), mmvalue.Null); err != nil {
					return err
				}
				inv := xmlstore.NewElement("invoice", xmlstore.Attr{Name: "cur", Value: []string{"EUR", "USD", "SEK"}[rng.Intn(3)]})
				inv.Append(xmlstore.NewElement("total").Append(xmlstore.NewText(fmt.Sprintf("%.2f", float64(rng.Intn(900))/7))))
				if err := db.XML.Put(tx, fmt.Sprintf("o%04d", rng.Intn(150)), inv); err != nil {
					return err
				}
				item := mmvalue.ObjectOf("pid", fmt.Sprintf("p%d", rng.Intn(12)), "qty", rng.Intn(5))
				if err := orders.SetPath(tx, fmt.Sprintf("o%04d", rng.Intn(150)), "items", mmvalue.Array(item)); err != nil {
					return err
				}
				return orders.SetPath(tx, fmt.Sprintf("o%04d", rng.Intn(150)), "total", mmvalue.Float(float64(rng.Intn(900))/7))
			})
			if err != nil {
				writerErr = err
				return
			}
			writes++
		}
	}()

	type run struct {
		label     string
		ran       bool
		got, want []mmvalue.Value
	}
	runs := make([][]run, 2)
	var readers sync.WaitGroup
	for r := range runs {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for it := 0; it < 40; it++ {
				tx := db.Begin()
				var got []mmvalue.Value
				ran := plan(db.Pipeline(tx)).runProjected(func(row mmvalue.Value) bool {
					got = append(got, row.Clone())
					return true
				})
				want := refGroupBy(refOrdersAt(db, tx), mmvalue.ParsePath("c.0.city"), "k", aggs)
				runs[r] = append(runs[r], run{fmt.Sprintf("reader %d it %d", r, it), ran, got, want})
				got = nil
				ran = kvPlan(db.Pipeline(tx)).runProjected(func(row mmvalue.Value) bool {
					got = append(got, row.Clone())
					return true
				})
				want = refGroupBy(refKVOrdersAt(db, tx), mmvalue.ParsePath("it.pid"), "k", kvAggs)
				runs[r] = append(runs[r], run{fmt.Sprintf("reader %d it %d kv", r, it), ran, got, want})
				got = nil
				ran = graphPlan(db.Pipeline(tx)).runProjected(func(row mmvalue.Value) bool {
					got = append(got, row.Clone())
					return true
				})
				want = refGroupBy(refEdgeEndsAt(db, tx, "knows"), mmvalue.Path{"v"}, "k", graphAggs)
				want = refSort(want, mmvalue.Path{"n"}, true)[:min(5, len(want))]
				runs[r] = append(runs[r], run{fmt.Sprintf("reader %d it %d graph", r, it), ran, got, want})
				got = nil
				ran = xmlPlan(db.Pipeline(tx)).runProjected(func(row mmvalue.Value) bool {
					got = append(got, row.Clone())
					return true
				})
				want = refGroupBy(refXMLAt(db, tx), mmvalue.Path{"@cur"}, "k", xmlAggs)
				runs[r] = append(runs[r], run{fmt.Sprintf("reader %d it %d xml", r, it), ran, got, want})
				got = nil
				ran = invPlan(db.Pipeline(tx)).runProjected(func(row mmvalue.Value) bool {
					got = append(got, row.Clone())
					return true
				})
				rows := refJoinXMLAt(db, tx, db.Docs.Collection("orders").Find(tx, nil), "_id", "x")
				want = refGroupBy(refWhere(rows, "x.0.@cur", "EUR", "USD"), mmvalue.Path{"cid"}, "k", invAggs)
				runs[r] = append(runs[r], run{fmt.Sprintf("reader %d it %d invoices", r, it), ran, got, want})
				tx.Abort()
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for _, rs := range runs {
		for _, run := range rs {
			if !run.ran {
				t.Fatalf("%s: ran on rows", run.label)
			}
			if fmt.Sprint(run.got) != fmt.Sprint(run.want) {
				t.Fatalf("%s:\n got  %v\n want %v", run.label, run.got, run.want)
			}
		}
	}
	d := statsDelta(db.JoinStats(), before)
	if writes == 0 || d.Builds == 0 {
		t.Fatalf("writes %d, routes %+v: want commits and projection builds", writes, d)
	}
	t.Logf("writes %d, routes %+v", writes, d)
}

// TestEdgeEndsProjectionHonorsReaders projects the "knows" edge ends,
// which a nil reader reads off the label's CSR and so buys it, then
// under a snapshot reader, which shares it, and under a reader that has
// added a "knows" edge, which must see it: each projection must hold
// the ends refEdgeEndsAt lists under its reader, as a multiset.
func TestEdgeEndsProjectionHonorsReaders(t *testing.T) {
	db := Open()
	projGraphData(t, db, rand.New(rand.NewSource(5)))
	snap := db.Manager().Begin()
	defer snap.Abort()
	writer := db.Manager().Begin()
	defer writer.Abort()
	if err := db.Graph.AddEdge(writer, "w", "knows", "v00", "v29", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	scan := storeScan{side: db.Graph, prefix: "knows", keys: []string{"v"}}
	for _, r := range []struct {
		name string
		tx   *txn.Tx
	}{{"nil reader", nil}, {"snapshot reader", snap}, {"reader that has written", writer}} {
		p := project(scan, r.tx, []mmvalue.Path{{"v"}}, nil)
		got := make([]string, p.n)
		for i := range got {
			got[i] = p.cols[0].value(i).MustString()
		}
		var want []string
		for _, row := range refEdgeEndsAt(db, r.tx, "knows") {
			want = append(want, row.MustObject().GetOr("v", mmvalue.Null).MustString())
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: projected ends %v, want %v", r.name, got, want)
		}
	}
}

// TestProjectionAddsColumns pins one projection per store and version: a
// plan that needs columns the cached projection lacks scans once for
// those alone (the columns held are kept as they are), a plan whose
// columns are all held builds nothing, an Unnest's elements gain columns
// the same way, a commit starts a fresh projection, and a reader that
// has written gets a private one. Two readers that add disjoint columns
// at once each get their rows, and the projection ends with both. Every
// answer equals the row path's.
func TestProjectionAddsColumns(t *testing.T) {
	db := Open()
	coll := db.Docs.Collection("c")
	for i := range 200 {
		o := mmvalue.NewObject()
		o.Set("_id", mmvalue.String(fmt.Sprintf("d%03d", i)))
		o.Set("a", mmvalue.Int(int64(i%7)))
		o.Set("b", mmvalue.Float(float64(i%13)/2))
		o.Set("s", mmvalue.String(fmt.Sprintf("s%d", i%5)))
		o.Set("e", mmvalue.Int(int64(i%11)))
		o.Set("items", mmvalue.Array(mmvalue.ObjectOf("x", int64(i%3), "y", fmt.Sprintf("y%d", i%4)), mmvalue.ObjectOf("x", int64(i%2))))
		if err := coll.Insert(nil, mmvalue.FromObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	rowsKey := joinCacheKey{store: coll}
	elemsKey := storeScan{side: coll}.cacheKey(&arraySpec{path: mmvalue.Path{"items"}})
	entry := func(key joinCacheKey) *projection {
		e, ok := db.joins.m.Load(key)
		if !ok || e.(*joinCacheEntry).ver != coll.Version() {
			return nil
		}
		return e.(*joinCacheEntry).proj
	}
	all := document.Func("all", func(mmvalue.Value) bool { return true }) // a seed filter: the row path
	plans := map[string]func(p *Pipeline, f document.Filter) *Pipeline{
		"a b": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).GroupBy("a", "k", Sum("b", "v"))
		},
		"a s": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).GroupBy("a", "k", Max("s", "v"))
		},
		"s": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).GroupBy("s", "k", Count("n"))
		},
		"a e": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).GroupBy("a", "k", Max("e", "v"))
		},
		"items x": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).Unnest("items", "it").GroupBy("it.x", "k", Count("n"))
		},
		"b items y": func(p *Pipeline, f document.Filter) *Pipeline {
			return p.FromDocuments("c", f).Unnest("items", "it").GroupBy("it.y", "k", Sum("b", "v"))
		},
	}
	run := func(name string, tx *txn.Tx) error {
		want, err := plans[name](db.Pipeline(tx), all).Rows()
		if err != nil {
			return err
		}
		var got []mmvalue.Value
		if !plans[name](db.Pipeline(tx), nil).runProjected(func(r mmvalue.Value) bool { got = append(got, r.Clone()); return true }) {
			return fmt.Errorf("%s: not run over columns", name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("%s:\n got  %v\n want %v", name, got, want)
		}
		return nil
	}
	step := func(name string, tx *txn.Tx, builds, hits uint64) {
		t.Helper()
		before := db.JoinStats()
		if err := run(name, tx); err != nil {
			t.Fatal(err)
		}
		if d := statsDelta(db.JoinStats(), before); d.Builds != builds || d.CacheHits != hits {
			t.Errorf("%s: %d builds, %d hits; want %d, %d", name, d.Builds, d.CacheHits, builds, hits)
		}
	}
	paths := func(p *projection) string {
		if p == nil {
			return "none"
		}
		return fmt.Sprint(p.paths)
	}

	step("a b", nil, 1, 0)
	first := entry(rowsKey)
	step("a s", nil, 1, 0)
	if p := entry(rowsKey); paths(p) != "[a b s]" || p.cols[0].memo != first.cols[0].memo || p.cols[1].memo != first.cols[1].memo {
		t.Errorf("after a second plan the projection holds %s, want a and b kept and s added", paths(p))
	}
	step("s", nil, 0, 1)
	step("items x", nil, 1, 0)
	elems := entry(elemsKey).elems
	step("b items y", nil, 1, 0)
	if p := entry(elemsKey); paths(p) != "[b]" || paths(p.elems) != "[x y]" || p.elems.cols[0].memo != elems.cols[0].memo {
		t.Errorf("elements projection holds %s and elements %s, want b, then x kept and y added", paths(p), paths(p.elems))
	}
	step("items x", nil, 0, 1)

	touch := func(i int) {
		t.Helper()
		err := coll.Update(nil, fmt.Sprintf("d%03d", i), func(doc mmvalue.Value) (mmvalue.Value, error) {
			doc.MustObject().Set("b", mmvalue.Float(float64(i)))
			return doc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	touch(3)
	step("a s", nil, 1, 0)
	if p := entry(rowsKey); paths(p) != "[a s]" {
		t.Errorf("after a commit the projection holds %s, want a fresh one of a and s", paths(p))
	}

	cached := entry(rowsKey)
	writer := db.Manager().Begin()
	if err := coll.Update(writer, "d004", func(doc mmvalue.Value) (mmvalue.Value, error) {
		doc.MustObject().Set("a", mmvalue.Int(99))
		return doc, nil
	}); err != nil {
		t.Fatal(err)
	}
	step("a s", writer, 1, 0)
	if entry(rowsKey) != cached {
		t.Error("a writer's build replaced the cached projection")
	}
	writer.Abort()

	for round := range 20 {
		touch(round)
		step("a b", nil, 1, 0)
		before := db.JoinStats()
		var wg sync.WaitGroup
		for _, name := range []string{"a s", "a e"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := run(name, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if d := statsDelta(db.JoinStats(), before); d.Builds != 2 || len(entry(rowsKey).paths) != 4 {
			t.Errorf("round %d: two readers adding a column each: %d builds, projection holds %s; want 2 builds and all four columns",
				round, d.Builds, paths(entry(rowsKey)))
		}
	}
}
