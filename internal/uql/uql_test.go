package uql

import (
	"strings"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
)

func loadedDB(t testing.TB) *udbms.DB {
	t.Helper()
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 77})
	if err := ds.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLexer(t *testing.T) {
	toks, err := lex(`FOR c IN customer FILTER c.age >= 30 AND c.name == "Ann \"A\"" LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
	// Spot checks: FOR c IN customer FILTER c.age ...
	if toks[0].kind != tokKeyword || toks[0].text != "FOR" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[5].kind != tokIdent || toks[5].text != "c.age" {
		t.Errorf("dotted path token = %+v", toks[5])
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == `Ann "A"` {
			found = true
		}
	}
	if !found {
		t.Error("escaped string not lexed")
	}
	// Errors.
	if _, err := lex(`FILTER x == "unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex("FILTER x @ 3"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestParseBasics(t *testing.T) {
	q, err := Parse(`FOR c IN customer FILTER c.age > 30 SORT c.age DESC LIMIT 3 RETURN c.name, c.age AS years`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Var != "c" || q.Source != "customer" || q.IsGraph {
		t.Errorf("header = %+v", q)
	}
	if len(q.Stages) != 3 {
		t.Fatalf("stages = %d", len(q.Stages))
	}
	if _, ok := q.Stages[0].(FilterStage); !ok {
		t.Error("stage 0 should be FILTER")
	}
	if s, ok := q.Stages[1].(SortStage); !ok || s.Path != "age" || !s.Desc {
		t.Errorf("stage 1 = %+v", q.Stages[1])
	}
	if s, ok := q.Stages[2].(LimitStage); !ok || s.N != 3 {
		t.Errorf("stage 2 = %+v", q.Stages[2])
	}
	if len(q.Return) != 2 || q.Return[0].Alias != "name" || q.Return[1].Alias != "years" {
		t.Errorf("return = %+v", q.Return)
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse(`FOR c IN customer JOIN o IN orders ON o.customer_id == c.id RETURN c.name, o`)
	if err != nil {
		t.Fatal(err)
	}
	js, ok := q.Stages[0].(JoinStage)
	if !ok {
		t.Fatalf("stage 0 = %T", q.Stages[0])
	}
	if js.Var != "o" || js.Source != "orders" || js.LeftPath != "customer_id" || js.RightPath != "id" {
		t.Errorf("join = %+v", js)
	}
	// Reversed ON order also works.
	q2, err := Parse(`FOR c IN customer JOIN o IN orders ON c.id == o.customer_id RETURN o`)
	if err != nil {
		t.Fatal(err)
	}
	js2 := q2.Stages[0].(JoinStage)
	if js2.LeftPath != "customer_id" || js2.RightPath != "id" {
		t.Errorf("reversed join = %+v", js2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT * FROM x`,
		`FOR IN customer`,
		`FOR c customer`,
		`FOR c.x IN customer`,
		`FOR c IN customer FILTER`,
		`FOR c IN customer LIMIT abc`,
		`FOR c IN customer LIMIT -1`,
		`FOR c IN customer JOIN o IN orders ON o.x != c.y RETURN o`,
		`FOR c IN customer JOIN o IN orders ON x.q == y.w RETURN o`,
		`FOR c IN customer RETURN c.name extra`,
		`FOR c IN customer FILTER (c.a == 1 RETURN c`,
		`FOR c IN GRAPH customer RETURN c`,
		`FOR c IN customer FILTER c.a = 1 RETURN c`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestExecuteRelationalFilterSortLimit(t *testing.T) {
	db := loadedDB(t)
	rows, err := Run(db, nil, `
		FOR c IN customer
		  FILTER c.city == "Helsinki" AND c.age >= 30
		  SORT c.age DESC
		  LIMIT 3
		  RETURN c.name, c.age`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	prev := int64(1 << 60)
	for _, r := range rows {
		o := r.MustObject()
		age, ok := o.Get("age")
		if !ok {
			t.Fatal("projection missing age")
		}
		if age.MustInt() > prev {
			t.Error("sort DESC violated")
		}
		prev = age.MustInt()
		if _, hasCity := o.Get("city"); hasCity {
			t.Error("projection leaked column")
		}
	}
}

func TestExecuteDocumentSource(t *testing.T) {
	db := loadedDB(t)
	rows, err := Run(db, nil, `FOR o IN orders FILTER o.total > 300 RETURN o._id, o.total`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		total, _ := r.MustObject().Get("total")
		f, _ := total.AsFloat()
		if f <= 300 {
			t.Errorf("filter leak: total %g", f)
		}
	}
	// Same count as the document API.
	want := 0
	for _, d := range db.Docs.Collection("orders").Find(nil, nil, nil) {
		tv, _ := mmvalue.ParsePath("total").Lookup(d)
		if f, _ := tv.AsFloat(); f > 300 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("UQL found %d, API found %d", len(rows), want)
	}
}

func TestExecuteJoinAcrossModels(t *testing.T) {
	db := loadedDB(t)
	rows, err := Run(db, nil, `
		FOR c IN customer
		  FILTER c.city == "Turku"
		  JOIN o IN orders ON o.customer_id == c.id
		  RETURN c.id, o`)
	if err != nil {
		t.Fatal(err)
	}
	totalJoined := 0
	for _, r := range rows {
		obj := r.MustObject()
		arr, _ := obj.GetOr("o", mmvalue.Null).AsArray()
		totalJoined += len(arr)
		// Verify join correctness on a sample row.
		id, _ := obj.Get("id")
		for _, od := range arr {
			cid, _ := mmvalue.ParsePath("customer_id").Lookup(od)
			if !mmvalue.Equal(cid, id) {
				t.Fatalf("join produced wrong match: %s vs %s", cid, id)
			}
		}
	}
	if totalJoined == 0 {
		t.Error("join found no orders for Turku customers")
	}
	// Filtering on the joined array after JOIN.
	rows2, err := Run(db, nil, `
		FOR c IN customer
		  JOIN o IN orders ON o.customer_id == c.id
		  FILTER o.0.total > 100
		  RETURN c.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) == 0 {
		t.Error("post-join filter matched nothing")
	}
}

func TestExecuteGraphSource(t *testing.T) {
	db := loadedDB(t)
	rows, err := Run(db, nil, `FOR v IN GRAPH(customer) RETURN v._vid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("graph vertices = %d, want 50", len(rows))
	}
	if v, _ := rows[0].MustObject().Get("_vid"); v.Kind() != mmvalue.KindString {
		t.Error("_vid projection wrong")
	}
	// Filter on vertex props.
	rows, err = Run(db, nil, `FOR v IN GRAPH(customer) FILTER v.id <= 5 RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("filtered vertices = %d", len(rows))
	}
}

func TestExecuteOperatorsAndLiterals(t *testing.T) {
	db := loadedDB(t)
	cases := []struct {
		src  string
		okFn func(n int) bool
	}{
		{`FOR c IN customer FILTER c.vip == TRUE RETURN c.id`, func(n int) bool { return n >= 0 }},
		{`FOR c IN customer FILTER NOT c.vip == TRUE RETURN c.id`, func(n int) bool { return n > 0 }},
		{`FOR c IN customer FILTER c.name LIKE "A%" RETURN c.name`, func(n int) bool { return n >= 0 }},
		{`FOR c IN customer FILTER c.age != 30 AND (c.city == "Turku" OR c.city == "Oulu") RETURN c.id`, func(n int) bool { return n >= 0 }},
		{`FOR c IN customer FILTER c.bogus == NULL RETURN c.id`, func(n int) bool { return n == 50 }},
		{`FOR c IN customer FILTER c.age >= 18 RETURN c.id`, func(n int) bool { return n == 50 }},
		{`FOR c IN customer FILTER c.age < 18 RETURN c.id`, func(n int) bool { return n == 0 }},
	}
	for _, tc := range cases {
		rows, err := Run(db, nil, tc.src)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if !tc.okFn(len(rows)) {
			t.Errorf("%s: unexpected count %d", tc.src, len(rows))
		}
	}
	// LIKE semantics sanity against direct evaluation.
	rows, _ := Run(db, nil, `FOR c IN customer FILTER c.name LIKE "%nen" RETURN c.name`)
	for _, r := range rows {
		name, _ := r.MustObject().Get("name")
		if !strings.HasSuffix(name.MustString(), "nen") {
			t.Errorf("LIKE %%nen matched %s", name)
		}
	}
}

func TestExecuteUnknownSources(t *testing.T) {
	db := loadedDB(t)
	if _, err := Run(db, nil, `FOR x IN nosuch RETURN x`); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := Run(db, nil, `FOR c IN customer JOIN o IN nosuch ON o.a == c.id RETURN o`); err == nil {
		t.Error("unknown join source should fail")
	}
}

func TestExecuteWholeRowReturnAndSnapshot(t *testing.T) {
	db := loadedDB(t)
	// RETURN bare variable gives the whole row under the alias "row".
	rows, err := Run(db, nil, `FOR c IN customer FILTER c.id == 1 RETURN c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	whole, _ := rows[0].MustObject().Get("row")
	if _, ok := whole.MustObject().Get("city"); !ok {
		t.Error("whole-row return missing fields")
	}
	// No RETURN clause gives raw rows.
	raw, err := Run(db, nil, `FOR c IN customer LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2 {
		t.Errorf("raw rows = %d", len(raw))
	}
	// Snapshot: a query under an old transaction misses later inserts.
	tx := db.Begin()
	defer tx.Abort()
	cust, _ := db.Relational.Table("customer")
	if err := cust.Insert(nil, mmvalue.ObjectOf("id", 9999, "name", "new", "age", 1, "city", "X", "country", "FI", "vip", false)); err != nil {
		t.Fatal(err)
	}
	old, err := Run(db, tx, `FOR c IN customer FILTER c.id == 9999 RETURN c.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Error("snapshot query saw a future insert")
	}
	now, _ := Run(db, nil, `FOR c IN customer FILTER c.id == 9999 RETURN c.id`)
	if len(now) != 1 {
		t.Error("latest query missed the insert")
	}
}

func TestExprString(t *testing.T) {
	q, err := Parse(`FOR c IN t FILTER NOT (c.a == 1 AND c.b LIKE "x%") OR c.d < 2 RETURN c.a`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Stages[0].(FilterStage).Cond.String()
	for _, frag := range []string{"NOT", "AND", "OR", "LIKE", "a == 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("expr string %q missing %q", s, frag)
		}
	}
}

func BenchmarkUQLParse(b *testing.B) {
	src := `FOR c IN customer FILTER c.city == "Helsinki" AND c.age >= 30 JOIN o IN orders ON o.customer_id == c.id SORT c.age DESC LIMIT 10 RETURN c.name, o`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUQLExecute(b *testing.B) {
	db := loadedDB(b)
	q, err := Parse(`FOR c IN customer FILTER c.city == "Helsinki" JOIN o IN orders ON o.customer_id == c.id RETURN c.id, o`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}
