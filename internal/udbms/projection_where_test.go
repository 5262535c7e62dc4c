package udbms

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"udbench/internal/document"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// projXMLData gives most of projDB's orders an invoice, and adds a few
// invoices no order names. An invoice may lack its cur attribute or its
// total child, may repeat the total child (the first one counts), and a
// total may read NaN; each has a note child of text. In projMixed mode
// one total does not parse, so the total column mixes strings into
// floats.
func projXMLData(t *testing.T, db *DB, rng *rand.Rand, mode projMode) {
	t.Helper()
	ids := []string{"z00", "z01", "z02"}
	for _, o := range db.Docs.Collection("orders").Find(nil, nil) {
		if rng.Intn(8) > 0 {
			ids = append(ids, o.MustObject().GetOr("_id", mmvalue.Null).MustString())
		}
	}
	for i, id := range ids {
		inv := xmlstore.NewElement("invoice", xmlstore.Attr{Name: "id", Value: id})
		if rng.Intn(6) > 0 {
			inv.SetAttr("cur", []string{"EUR", "USD", "SEK"}[rng.Intn(3)])
		}
		total := fmt.Sprintf("%.2f", float64(rng.Intn(5000))/7)
		switch {
		case mode == projMixed && i == 3:
			total = "n/a"
		case rng.Intn(30) == 0:
			total = "NaN"
		}
		if rng.Intn(7) > 0 || total == "n/a" {
			inv.Append(xmlstore.NewElement("total").Append(xmlstore.NewText(total)))
		}
		inv.Append(xmlstore.NewElement("note").Append(xmlstore.NewText(fmt.Sprintf("n%d", rng.Intn(9)))))
		if rng.Intn(10) == 0 {
			inv.Append(xmlstore.NewElement("total").Append(xmlstore.NewText("1e9")))
		}
		if err := db.XML.Put(nil, id, inv); err != nil {
			t.Fatal(err)
		}
	}
}

// refXMLRow is an invoice's row, built field by field from the tree.
func refXMLRow(id string, doc *xmlstore.Node) mmvalue.Value {
	row := mmvalue.NewObject()
	row.Set("_id", mmvalue.String(id))
	for _, a := range doc.Attrs {
		row.Set("@"+a.Name, mmvalue.String(a.Value))
	}
	for _, name := range []string{"total", "note"} {
		if c, ok := doc.FirstChild(name); ok {
			v := mmvalue.String(c.InnerText())
			if f, err := strconv.ParseFloat(c.InnerText(), 64); err == nil {
				v = mmvalue.Float(f)
			}
			row.Set(name, v)
		}
	}
	return mmvalue.FromObject(row)
}

// refXMLAt is FromXML() under tx.
func refXMLAt(db *DB, tx *txn.Tx) []mmvalue.Value {
	var rows []mmvalue.Value
	db.XML.Scan(tx, func(id string, doc *xmlstore.Node) bool {
		rows = append(rows, refXMLRow(id, doc))
		return true
	})
	return rows
}

// refJoinXMLAt attaches to each row the invoice its rowField names, one
// lookup per row under tx.
func refJoinXMLAt(db *DB, tx *txn.Tx, rows []mmvalue.Value, rowField, asField string) []mmvalue.Value {
	for _, r := range rows {
		var match []mmvalue.Value
		if id, ok := r.MustObject().GetOr(rowField, mmvalue.Null).AsString(); ok {
			if doc, ok := db.XML.Get(tx, id); ok {
				match = append(match, refXMLRow(id, doc))
			}
		}
		r.MustObject().Set(asField, mmvalue.Array(match...))
	}
	return rows
}

// refWhere keeps the rows whose non-null value at path equals one of
// vals.
func refWhere(rows []mmvalue.Value, path string, vals ...any) []mmvalue.Value {
	var kept []mmvalue.Value
	for _, r := range rows {
		v := mmvalue.ParsePath(path).LookupOr(r, mmvalue.Null)
		for _, w := range vals {
			if !v.IsNull() && mmvalue.Equal(v, mmvalue.From(w)) {
				kept = append(kept, r)
				break
			}
		}
	}
	return kept
}

// refUnnest is Unnest(path, as) over rows.
func refUnnest(rows []mmvalue.Value, path, as string) []mmvalue.Value {
	var out []mmvalue.Value
	for _, r := range rows {
		elems, _ := mmvalue.ParsePath(path).LookupOr(r, mmvalue.Null).AsArray()
		for _, e := range elems {
			c := r.Clone()
			c.MustObject().Set(as, e)
			out = append(out, c)
		}
	}
	return out
}

// projWherePlans are the XML seed, XML build side and Where plans over
// projDB, projKVData and projXMLData. A Where's values mix an int and an
// equal float, strings, null (which matches nothing) and values no row
// holds; one Where matches objects, another bools.
func projWherePlans() []projPlanCase {
	xmlAggs := []Agg{Avg("total", "av"), Count("n"), Max("_id", "mx"), Max("note", "xn")}
	sumAggs := []Agg{Sum("total", "s"), Count("n")}
	invAggs := []Agg{Max("x.0.total", "t"), Count("n"), Sum("x.0.total", "s")}
	keys := []any{1, 2.0, "k3", "k4", nil, 99, "nobody"}
	cities := []any{"c1", "c4", nil}
	refs := []any{map[string]any{"cid": 1}, map[string]any{"cid": "k3"}, map[string]any{}, true}
	return []projPlanCase{
		{
			name: "xml seed",
			build: func(p *Pipeline) *Pipeline {
				return p.FromXML().GroupBy("@cur", "k", xmlAggs...)
			},
			refRow: func(db *DB, _ []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refXMLAt(db, nil), mmvalue.Path{"@cur"}, "k", xmlAggs)
			},
		},
		{
			name: "orders join xml",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).JoinXML("_id", "x").GroupBy("x.0.@cur", "k", invAggs...)
			},
			refRow: func(db *DB, orders []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refJoinXMLAt(db, nil, orders, "_id", "x"), mmvalue.ParsePath("x.0.@cur"), "k", invAggs)
			},
		},
		{
			name:   "two orders look their invoices up: on rows",
			onRows: true,
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", document.Func("two", twoOrders)).JoinXML("_id", "x").GroupBy("_id", "k", invAggs...)
			},
			refRow: func(db *DB, orders []mmvalue.Value) []mmvalue.Value {
				var two []mmvalue.Value
				for _, o := range orders {
					if twoOrders(o) {
						two = append(two, o)
					}
				}
				return refGroupBy(refJoinXMLAt(db, nil, two, "_id", "x"), mmvalue.Path{"_id"}, "k", invAggs)
			},
		},
		{
			name: "seed where",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).Where("cid", keys...).GroupBy("cid", "k", sumAggs...)
			},
			refRow: func(_ *DB, orders []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refWhere(orders, "cid", keys...), mmvalue.Path{"cid"}, "k", sumAggs)
			},
		},
		{
			name: "build-side where",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).JoinRelational("custtab", "cid", "cid", "c").
					Where("c.0.city", cities...).GroupBy("cid", "k", sumAggs...)
			},
			refRow: func(db *DB, orders []mmvalue.Value) []mmvalue.Value {
				rows := refJoinRelational(db, orders, "custtab", "cid", "cid", "c")
				return refGroupBy(refWhere(rows, "c.0.city", cities...), mmvalue.Path{"cid"}, "k", sumAggs)
			},
		},
		{
			name: "where matching nothing",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).JoinRelational("custtab", "cid", "cid", "c").
					Where("c.0.city", "nowhere").GroupBy("cid", "k", sumAggs...)
			},
			refRow: func(_ *DB, _ []mmvalue.Value) []mmvalue.Value { return nil },
		},
		{
			name: "xml join, unnest, element where",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).JoinXML("_id", "x").Unnest("items", "it").
					Where("it.pid", "p1", "p3", nil).Where("x.0.@cur", "EUR", "SEK").GroupBy("_id", "k", invAggs...)
			},
			refRow: func(db *DB, orders []mmvalue.Value) []mmvalue.Value {
				rows := refUnnest(refJoinXMLAt(db, nil, orders, "_id", "x"), "items", "it")
				rows = refWhere(refWhere(rows, "it.pid", "p1", "p3", nil), "x.0.@cur", "EUR", "SEK")
				return refGroupBy(rows, mmvalue.Path{"_id"}, "k", invAggs)
			},
		},
		{
			name: "object where, bool key",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).JoinDocuments("custdocs", "cid", "ref.cid", "d").
					Where("d.0.ref", refs...).GroupBy("paid", "k", sumAggs...)
			},
			refRow: func(db *DB, orders []mmvalue.Value) []mmvalue.Value {
				rows := refJoinDocuments(db, orders, "custdocs", "cid", "ref.cid", "d")
				return refGroupBy(refWhere(rows, "d.0.ref", refs...), mmvalue.Path{"paid"}, "k", sumAggs)
			},
		},
		{
			name: "bool where",
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).Where("paid", true, 1).GroupBy("cid", "k", sumAggs...)
			},
			refRow: func(_ *DB, orders []mmvalue.Value) []mmvalue.Value {
				return refGroupBy(refWhere(orders, "paid", true, 1), mmvalue.Path{"cid"}, "k", sumAggs)
			},
		},
		{
			name:   "where, then sorted: on rows",
			onRows: true,
			build: func(p *Pipeline) *Pipeline {
				return p.FromDocuments("orders", nil).Where("cid", keys...).SortBy("total", false).GroupBy("cid", "k", sumAggs...)
			},
			refRow: func(_ *DB, orders []mmvalue.Value) []mmvalue.Value {
				rows := refSort(refWhere(orders, "cid", keys...), mmvalue.Path{"total"}, false)
				return refGroupBy(rows, mmvalue.Path{"cid"}, "k", sumAggs)
			},
		},
	}
}

// twoOrders keeps orders o0005 and o0006: too few rows for a build, so
// JoinXML looks each invoice up by id.
func twoOrders(o mmvalue.Value) bool {
	id, _ := o.MustObject().GetOr("_id", mmvalue.Null).AsString()
	return id == "o0005" || id == "o0006"
}

// TestWhereAndXMLMatchRowPath runs the XML and Where plans over random
// data, over columns and on rows, and compares both with the row at a
// time references. Every plan not marked onRows runs over columns, also
// where a column it reads mixes kinds (projMixed) or a relational join
// has float build keys (projCross).
func TestWhereAndXMLMatchRowPath(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		mode := projMode(seed % 4)
		rng := rand.New(rand.NewSource(seed))
		db := projDB(t, rng, mode)
		projKVData(t, db, rng, mode)
		projXMLData(t, db, rng, mode)
		for _, pc := range projWherePlans() {
			label := fmt.Sprintf("seed %d mode %d %s", seed, mode, pc.name)
			want := pc.refRow(db, db.Docs.Collection("orders").Find(nil, nil))
			var got []mmvalue.Value
			ran := pc.build(db.Pipeline(nil)).runProjected(func(r mmvalue.Value) bool {
				got = append(got, r.Clone())
				return true
			})
			if wantRan := !pc.onRows; ran != wantRan {
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

// TestUnnestProjectionsShareByContent pins the projection cache key of
// an unnested array: it is the array's path and element paths, not the
// scan that unnests it. A join-side Unnest and a seed Unnest of the
// orders' items reading the same element path share one projection
// (Q3's and Q7's), and one reading another element path gets its own.
func TestUnnestProjectionsShareByContent(t *testing.T) {
	db := projDB(t, rand.New(rand.NewSource(5)), projStr)
	projKVData(t, db, rand.New(rand.NewSource(6)), projStr)
	aggs := []Agg{Count("n")}
	seed := func(elem string) *Pipeline {
		return db.Pipeline(nil).FromDocuments("orders", nil).Unnest("items", "it").GroupBy("it."+elem, "k", aggs...)
	}
	orders := db.Docs.Collection("orders").Find(nil, nil)
	for _, elem := range []string{"pid", "qty"} {
		got, err := seed(elem).Rows()
		if err != nil {
			t.Fatal(err)
		}
		if want := refGroupBy(refUnnest(orders, "items", "it"), mmvalue.ParsePath("it."+elem), "k", aggs); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("group by it.%s:\n got  %v\n want %v", elem, got, want)
		}
	}
	before := db.JoinStats()
	if _, err := db.Pipeline(nil).FromKVPrefix("fb/", "cid", "oid").JoinDocuments("orders", "oid", "_id", "o").
		Unnest("o.0.items", "it").GroupBy("it.pid", "k", aggs...).Count(); err != nil {
		t.Fatal(err)
	}
	if d := statsDelta(db.JoinStats(), before); d.Builds != 2 || d.CacheHits != 0 {
		t.Errorf("key-value seed, orders build side: routes %+v, want two builds", d)
	}
	before = db.JoinStats()
	if _, err := db.Pipeline(nil).FromDocuments("orders", nil).JoinXML("_id", "x").
		Unnest("items", "it").GroupBy("it.pid", "k", aggs...).Count(); err != nil {
		t.Fatal(err)
	}
	if d := statsDelta(db.JoinStats(), before); d.Builds != 1 || d.CacheHits != 1 {
		t.Errorf("orders seed unnested as the build side was, then XML: routes %+v, want one hit and one build", d)
	}
}
