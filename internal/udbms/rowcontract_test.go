package udbms

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// contractDB is a small Figure-1 dataset whose rows nest: orders carry
// items with tag arrays, feedback values and vertex properties hold
// objects, so a mutation can reach every level of a returned row.
// Visits name orders, and there are more of them than an attach batch
// holds (attachCap), so a join from them recycles its scratch rows
// within one run.
func contractDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	cust, err := db.Relational.CreateTable("customer", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
		relational.Column{Name: "city", Type: relational.TypeString},
	))
	if err != nil {
		t.Fatal(err)
	}
	orders, visits := db.Docs.Collection("orders"), db.Docs.Collection("visits")
	if err := db.RunTx(func(tx *txn.Tx) error {
		for i := 1; i <= 6; i++ {
			if err := cust.Insert(tx, mmvalue.ObjectOf("id", i, "name", fmt.Sprintf("cust%d", i), "city", []string{"hki", "tku"}[i%2])); err != nil {
				return err
			}
			props := mmvalue.ObjectOf("id", i, "tags", []any{"v", map[string]any{"rank": i}})
			if err := db.Graph.AddVertex(tx, graph.VID(fmt.Sprintf("c%d", i)), "customer", props); err != nil {
				return err
			}
		}
		for i := 1; i <= 9; i++ {
			from, to := graph.VID(fmt.Sprintf("c%d", i%6+1)), graph.VID(fmt.Sprintf("c%d", (i*i)%6+1))
			if err := db.Graph.AddEdge(tx, graph.EID(fmt.Sprintf("k%d", i)), "knows", from, to, mmvalue.ObjectOf("since", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 3*attachCap; i++ {
			if err := visits.Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("v%03d", i), "oid", fmt.Sprintf("o%02d", i%11+1), "n", i)); err != nil {
				return err
			}
		}
		for i := 1; i <= 12; i++ {
			cid := i%6 + 1
			items := make([]any, 1+i%3)
			for k := range items {
				items[k] = map[string]any{"pid": fmt.Sprintf("p%d", (i+k)%5), "qty": k + 1, "tags": []any{"x", "y"}}
			}
			if err := orders.Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("o%02d", i),
				"customer_id", cid, "total", float64(i*10), "items", items)); err != nil {
				return err
			}
			if i%4 != 0 {
				fb := mmvalue.ObjectOf("rating", i%5+1, "note", map[string]any{"text": fmt.Sprintf("n%d", i)})
				if err := db.KV.Put(tx, fmt.Sprintf("feedback/%d/o%02d", cid, i), fb); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := orders.CreateIndex("customer_id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// dumpStores renders every row of the four stores the pipelines read,
// sorted, so any write into store memory shows as a difference.
func dumpStores(db *DB) string {
	var lines []string
	add := func(store, key string, v mmvalue.Value) {
		lines = append(lines, store+" "+key+" "+v.String())
	}
	for _, name := range db.Relational.TableNames() {
		t, _ := db.Relational.Table(name)
		t.Stream(nil, nil, func(r mmvalue.Value) bool { add("rel", name, r); return true })
	}
	for _, name := range db.Docs.CollectionNames() {
		db.Docs.Collection(name).Stream(nil, nil, func(d mmvalue.Value) bool { add("doc", name, d); return true })
	}
	db.KV.Scan(nil, "", "", func(k string, v mmvalue.Value) bool { add("kv", k, v); return true })
	db.Graph.Vertices(nil, func(v graph.Vertex) bool { add("vertex", string(v.ID), v.Props); return true })
	db.Graph.Edges(nil, "", func(e graph.Edge) bool {
		add("edge", string(e.ID)+" "+string(e.From)+" "+string(e.To), e.Props)
		return true
	})
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// scribble writes into every level of v: each object gains a field and
// has every scalar field overwritten, each array has every scalar
// element overwritten, and containers are walked before that.
func scribble(v mmvalue.Value) {
	if elems, ok := v.AsArray(); ok {
		for i, e := range elems {
			if k := e.Kind(); k == mmvalue.KindArray || k == mmvalue.KindObject {
				scribble(e)
			} else {
				elems[i] = mmvalue.String("scribbled")
			}
		}
		return
	}
	obj, ok := v.AsObject()
	if !ok {
		return
	}
	for _, key := range slices.Clone(obj.Keys()) {
		if f := obj.GetOr(key, mmvalue.Null); f.Kind() == mmvalue.KindArray || f.Kind() == mmvalue.KindObject {
			scribble(f)
		} else {
			obj.Set(key, mmvalue.String("scribbled"))
		}
	}
	obj.Set("_scribbled", mmvalue.Bool(true))
}

func render(rows []mmvalue.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestPipelineLeavesStoreRowsAlone pins the executor's row contract:
// rows Rows returns are the caller's, so writing into every level of
// them — top-level fields, attached matches, their nested items —
// changes neither the stores nor the next execution, and Each passes
// see the rows Rows returns. The plans cover the attaching stages
// (hash join, key-value prefix join, Unnest) after a seed, after a
// join and after a top-N group, on rows and over column projections,
// and run from several goroutines at once, so pipelines share the
// pooled scratch rows. A GroupBy on rows that reads a field a join
// attached to recycled scratch rows must also match its reference.
func TestPipelineLeavesStoreRowsAlone(t *testing.T) {
	db := contractDB(t)
	feedbackOf := func(field string) func(mmvalue.Value) string {
		return func(r mmvalue.Value) string {
			switch id := r.MustObject().GetOr(field, mmvalue.Null); id.Kind() {
			case mmvalue.KindInt:
				return fmt.Sprintf("feedback/%d/", id.MustInt())
			case mmvalue.KindString:
				return "feedback/" + strings.TrimPrefix(id.MustString(), "c") + "/"
			}
			return ""
		}
	}
	someVisits := document.Func("n%3>0", func(v mmvalue.Value) bool {
		n, _ := v.MustObject().GetOr("n", mmvalue.Null).AsInt()
		return n%3 > 0
	})
	groupAggs := []Agg{Max("_order.0.total", "top"), Count("n")}
	plans := []struct {
		name string
		plan func() *Pipeline
	}{
		{"q1", func() *Pipeline {
			return db.Pipeline(nil).FromRelational("customer", relational.Col("id").Eq(2)).
				JoinDocuments("orders", "id", "customer_id", "_orders").
				JoinKVPrefix(feedbackOf("id"), "_feedback")
		}},
		{"q3", func() *Pipeline {
			return db.Pipeline(nil).FromKVPrefix("feedback/", "cid", "oid").
				JoinDocuments("orders", "oid", "_id", "_order").
				Unnest("_order.0.items", "item").
				GroupBy("item.pid", "pid", Avg("value.rating", "rating")).
				SortBy("rating", true).
				Limit(3)
		}},
		{"q9", func() *Pipeline {
			return db.Pipeline(nil).FromEdgeEnds("knows", "v").
				GroupBy("v", "v", Count("degree")).
				SortBy("degree", true).
				Limit(3).
				JoinKVPrefix(feedbackOf("v"), "_feedback")
		}},
		{"q13", func() *Pipeline {
			return db.Pipeline(nil).FromDocuments("orders", nil).
				GroupBy("customer_id", "cid", Sum("total", "revenue")).
				SortBy("revenue", true).
				Limit(3).
				JoinRelational("customer", "cid", "id", "_cust")
		}},
		{"unnest", func() *Pipeline {
			return db.Pipeline(nil).FromDocuments("orders", nil).Unnest("items", "item")
		}},
		{"unnest-sorted", func() *Pipeline {
			return db.Pipeline(nil).FromDocuments("orders", nil).Unnest("items", "item").SortBy("item.qty", true)
		}},
		{"filtered-two-attach", func() *Pipeline {
			return db.Pipeline(nil).FromRelational("customer", relational.Col("city").Eq("hki")).
				JoinDocuments("orders", "id", "customer_id", "_orders").
				JoinKVPrefix(feedbackOf("id"), "_feedback")
		}},
		{"filtered-join-group", func() *Pipeline {
			return db.Pipeline(nil).FromDocuments("visits", someVisits).
				JoinDocuments("orders", "oid", "_id", "_order").
				GroupBy("_order.0.customer_id", "cid", groupAggs...)
		}},
	}
	before := dumpStores(db)
	// check runs one plan through every terminal and reports the first
	// departure from want (nil: record the first result instead).
	check := func(name string, plan func() *Pipeline, want []string) ([]string, error) {
		rows, err := plan().Rows()
		if err != nil {
			return nil, err
		}
		got := render(rows)
		if want == nil {
			want = got
		}
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("%s: Rows = %v, want %v", name, got, want)
		}
		for _, r := range rows {
			scribble(r)
		}
		for pass := 0; pass < 2; pass++ {
			var each []string
			if err := plan().Each(func(r mmvalue.Value) bool { each = append(each, r.String()); return true }); err != nil {
				return nil, err
			}
			if !slices.Equal(each, want) {
				return nil, fmt.Errorf("%s: Each pass %d after writing into Rows = %v, want %v", name, pass, each, want)
			}
		}
		if n, err := plan().Count(); err != nil || n != len(want) {
			return nil, fmt.Errorf("%s: Count = %d, %v, want %d", name, n, err, len(want))
		}
		return want, nil
	}
	want := make([][]string, len(plans))
	for i, pl := range plans {
		w, err := check(pl.name, pl.plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) == 0 {
			t.Fatalf("%s returned no rows", pl.name)
		}
		if _, err := check(pl.name, pl.plan, w); err != nil {
			t.Fatal(err)
		}
		want[i] = w
		if pl.name == "filtered-join-group" {
			rows := refJoinDocuments(db, db.Docs.Collection("visits").Find(nil, someVisits), "orders", "oid", "_id", "_order")
			if ref := render(refGroupBy(rows, mmvalue.ParsePath("_order.0.customer_id"), "cid", groupAggs)); !slices.Equal(w, ref) {
				t.Fatalf("%s: Rows = %v, want %v", pl.name, w, ref)
			}
		}
		if after := dumpStores(db); after != before {
			t.Fatalf("%s changed the stores:\nbefore %s\nafter  %s", pl.name, before, after)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := range plans {
					i := (k + g) % len(plans) // goroutines interleave different plans
					if _, err := check(plans[i].name, plans[i].plan, want[i]); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if after := dumpStores(db); after != before {
		t.Fatalf("concurrent runs changed the stores:\nbefore %s\nafter  %s", before, after)
	}
}

// TestGroupRowsOwnedWhereKept pins GroupBy's row rule, over column
// projections and on rows: a downstream that only reads (Each, Count, a
// Limit before them) is handed one scratch row refilled per group, and
// one that keeps rows (SortBy, JoinRelational, Rows) gets owned copies.
// Every terminal must see the rows of the row-at-a-time reference, rows
// a sort or a join kept must be one per group, not one row seen many
// times, and writing into the rows Rows returns, Max winners that are
// arrays of the stored orders included, must change neither the
// other rows, nor a second run, nor the stores.
func TestGroupRowsOwnedWhereKept(t *testing.T) {
	db := contractDB(t)
	aggs := []Agg{Sum("total", "revenue"), Count("n"), Max("items", "items"), Max("_id", "last")}
	ref := refGroupBy(db.Docs.Collection("orders").Find(nil, nil), mmvalue.ParsePath("customer_id"), "cid", aggs)
	sorted := refSort(ref, mmvalue.ParsePath("revenue"), true)
	joined := refJoinRelational(db, cloneRows(ref), "customer", "cid", "id", "_cust")
	before := dumpStores(db)
	for _, seed := range []struct {
		name   string
		filter document.Filter
	}{{"projected", nil}, {"rows", document.Everything()}} {
		group := func() *Pipeline {
			return db.Pipeline(nil).FromDocuments("orders", seed.filter).GroupBy("customer_id", "cid", aggs...)
		}
		if _, ok := group().projectedPlan(); ok != (seed.filter == nil) {
			t.Fatalf("%s: projected plan = %v", seed.name, ok)
		}
		for _, pl := range []struct {
			name string
			plan func() *Pipeline
			want []mmvalue.Value
		}{
			{"group", group, ref},
			{"limit", func() *Pipeline { return group().Limit(3) }, ref[:3]},
			{"sort", func() *Pipeline { return group().SortBy("revenue", true) }, sorted},
			{"top", func() *Pipeline { return group().SortBy("revenue", true).Limit(3) }, sorted[:3]},
			{"join", func() *Pipeline { return group().JoinRelational("customer", "cid", "id", "_cust") }, joined},
		} {
			name, want := seed.name+"/"+pl.name, render(pl.want)
			var each []string
			if err := pl.plan().Each(func(r mmvalue.Value) bool { each = append(each, r.String()); return true }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(each, want) {
				t.Fatalf("%s: Each = %v, want %v", name, each, want)
			}
			if n, err := pl.plan().Count(); err != nil || n != len(want) {
				t.Fatalf("%s: Count = %d, %v, want %d", name, n, err, len(want))
			}
			rows, err := pl.plan().Rows()
			if err != nil {
				t.Fatal(err)
			}
			again, err := pl.plan().Rows()
			if err != nil {
				t.Fatal(err)
			}
			if got := render(rows); !slices.Equal(got, want) {
				t.Fatalf("%s: Rows = %v, want %v", name, got, want)
			}
			scribble(rows[0])
			if got := render(rows[1:]); !slices.Equal(got, want[1:]) {
				t.Fatalf("%s: writing into row 0 changed the others: %v, want %v", name, got, want[1:])
			}
			if got := render(again); !slices.Equal(got, want) {
				t.Fatalf("%s: writing into the first run's rows changed the second's: %v, want %v", name, got, want)
			}
			for _, r := range again {
				scribble(r)
			}
			if third, err := pl.plan().Rows(); err != nil || !slices.Equal(render(third), want) {
				t.Fatalf("%s: a run after writing into the rows = %v, %v, want %v", name, render(third), err, want)
			}
			if after := dumpStores(db); after != before {
				t.Fatalf("%s changed the stores:\nbefore %s\nafter  %s", name, before, after)
			}
		}
	}
	// Limit → Each stops the emission early and sees the first groups.
	var first []string
	if err := db.Pipeline(nil).FromDocuments("orders", nil).GroupBy("customer_id", "cid", aggs...).
		Each(func(r mmvalue.Value) bool { first = append(first, r.String()); return len(first) < 2 }); err != nil {
		t.Fatal(err)
	}
	if want := render(ref[:2]); !slices.Equal(first, want) {
		t.Fatalf("Each stopped after two = %v, want %v", first, want)
	}
}

// cloneRows deep-copies rows.
func cloneRows(rows []mmvalue.Value) []mmvalue.Value {
	out := make([]mmvalue.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}
