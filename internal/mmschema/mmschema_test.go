package mmschema

import (
	"strings"
	"testing"

	"udbench/internal/mmvalue"
)

func orderDocs() []mmvalue.Value {
	return []mmvalue.Value{
		mmvalue.MustParseJSON(`{"_id":"o1","customer_id":1,"total":10.5,"status":"open","date":"2016-01-01","items":[{"product_id":"p1","qty":1}]}`),
		mmvalue.MustParseJSON(`{"_id":"o2","customer_id":2,"total":20,"status":"paid","date":"2016-01-02","items":[],"note":"gift"}`),
		mmvalue.MustParseJSON(`{"_id":"o3","customer_id":3,"total":5.25,"status":"open","date":"2016-01-03","items":[],"ship":{"city":"hki","zip":"00100"}}`),
	}
}

func TestInferBasics(t *testing.T) {
	s := Infer(orderDocs())
	cases := map[string]FieldType{
		"_id":         FTString,
		"customer_id": FTInt,
		"total":       FTFloat, // 10.5 and int 20 widen to float
		"status":      FTString,
		"items":       FTArray,
		"ship":        FTObject,
		"ship.city":   FTString,
	}
	for path, want := range cases {
		f, ok := s.Field(path)
		if !ok {
			t.Errorf("path %q not inferred", path)
			continue
		}
		if f.Type != want {
			t.Errorf("%q type = %s, want %s", path, f.Type, want)
		}
	}
	// Presence: note appears in 1/3 documents.
	if f, _ := s.Field("note"); f.Presence < 0.32 || f.Presence > 0.34 {
		t.Errorf("note presence = %g", f.Presence)
	}
	if f, _ := s.Field("_id"); f.Presence != 1 {
		t.Errorf("_id presence = %g", f.Presence)
	}
	// Mixed types.
	mixed := Infer([]mmvalue.Value{
		mmvalue.MustParseJSON(`{"x": 1}`),
		mmvalue.MustParseJSON(`{"x": "one"}`),
	})
	if f, _ := mixed.Field("x"); f.Type != FTMixed {
		t.Errorf("mixed type = %s", f.Type)
	}
	// Empty sample.
	if s := Infer(nil); len(s.Fields) != 0 {
		t.Error("empty sample should infer empty schema")
	}
	// String form mentions optionality.
	if str := s.String(); !strings.Contains(str, "note") || !strings.Contains(str, "?") {
		t.Errorf("schema string = %s", str)
	}
}

func TestFieldTypeStrings(t *testing.T) {
	names := map[FieldType]string{
		FTNull: "null", FTBool: "bool", FTInt: "int", FTFloat: "float",
		FTString: "string", FTArray: "array", FTObject: "object", FTMixed: "mixed",
	}
	for ft, want := range names {
		if ft.String() != want {
			t.Errorf("FieldType(%d) = %s", ft, ft.String())
		}
	}
	if FieldType(99).String() != "type(99)" {
		t.Error("unknown type name")
	}
}

func TestAddRemoveRenameOps(t *testing.T) {
	s := Infer(orderDocs())
	s2, err := Chain(s,
		AddField{Path: "channel", Type: FTString, Default: mmvalue.String("web")},
		RenameField{From: "status", To: "state"},
		RemoveField{Path: "items"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 3 {
		t.Errorf("version = %d", s2.Version)
	}
	if _, ok := s2.Field("channel"); !ok {
		t.Error("added field missing")
	}
	if _, ok := s2.Field("status"); ok {
		t.Error("renamed source still present")
	}
	if _, ok := s2.Field("state"); !ok {
		t.Error("renamed target missing")
	}
	if _, ok := s2.Field("items"); ok {
		t.Error("removed field still present")
	}
	// Original untouched.
	if _, ok := s.Field("status"); !ok {
		t.Error("Chain must not mutate its input")
	}
	// Error paths.
	if _, err := Chain(s, AddField{Path: "status", Type: FTString}); err == nil {
		t.Error("add existing should fail")
	}
	if _, err := Chain(s, RemoveField{Path: "zz"}); err == nil {
		t.Error("remove missing should fail")
	}
	if _, err := Chain(s, RenameField{From: "zz", To: "x"}); err == nil {
		t.Error("rename missing should fail")
	}
	if _, err := Chain(s, RenameField{From: "status", To: "total"}); err == nil {
		t.Error("rename onto existing should fail")
	}
}

func TestRenameMovesNestedChildren(t *testing.T) {
	s := Infer(orderDocs())
	s2, err := Chain(s, RenameField{From: "ship", To: "shipping"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Field("shipping.city"); !ok {
		t.Error("nested child not renamed")
	}
	if _, ok := s2.Field("ship.city"); ok {
		t.Error("old nested child still present")
	}
}

func TestChangeTypeAndMigrate(t *testing.T) {
	s := Infer(orderDocs())
	s2, err := Chain(s, ChangeType{Path: "total", NewType: FTString})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := s2.Field("total"); f.Type != FTString {
		t.Error("retype not applied")
	}
	docs := MigrateAll(orderDocs(), ChangeType{Path: "total", NewType: FTString})
	v, _ := mmvalue.ParsePath("total").Lookup(docs[0])
	if v.Kind() != mmvalue.KindString {
		t.Errorf("migrated total kind = %s", v.Kind())
	}
	if _, err := Chain(s, ChangeType{Path: "zz", NewType: FTInt}); err == nil {
		t.Error("retype missing should fail")
	}
	// Conversions.
	if got := convert(mmvalue.Float(3.7), FTInt); !mmvalue.Equal(got, mmvalue.Int(3)) {
		t.Errorf("float->int = %s", got)
	}
	if got := convert(mmvalue.String("x"), FTInt); !mmvalue.Equal(got, mmvalue.Int(0)) {
		t.Errorf("string->int = %s", got)
	}
	if got := convert(mmvalue.Int(2), FTBool); !mmvalue.Equal(got, mmvalue.Bool(true)) {
		t.Errorf("int->bool = %s", got)
	}
	if got := convert(mmvalue.Int(2), FTFloat); !mmvalue.Equal(got, mmvalue.Float(2)) {
		t.Errorf("int->float = %s", got)
	}
}

func TestNestAndFlatten(t *testing.T) {
	s := Infer(orderDocs())
	s2, err := Chain(s, NestFields{Fields: []string{"date", "status"}, Under: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Field("meta.date"); !ok {
		t.Error("nested path missing")
	}
	if _, ok := s2.Field("date"); ok {
		t.Error("old top-level path still present")
	}
	// Migrate documents and verify values moved.
	docs := MigrateAll(orderDocs(), NestFields{Fields: []string{"date", "status"}, Under: "meta"})
	v, ok := mmvalue.ParsePath("meta.status").Lookup(docs[0])
	if !ok || !mmvalue.Equal(v, mmvalue.String("open")) {
		t.Errorf("nested value = %s, %v", v, ok)
	}
	// Flatten ship.
	s3, err := Chain(s, FlattenField{Path: "ship"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Field("ship_city"); !ok {
		t.Errorf("flattened path missing: %v", s3.Paths())
	}
	if _, ok := s3.Field("ship"); ok {
		t.Error("flattened object still present")
	}
	docs = MigrateAll(orderDocs(), FlattenField{Path: "ship"})
	v, ok = mmvalue.ParsePath("ship_city").Lookup(docs[2])
	if !ok || !mmvalue.Equal(v, mmvalue.String("hki")) {
		t.Errorf("flattened value = %s, %v", v, ok)
	}
	// Flatten non-object fails.
	if _, err := Chain(s, FlattenField{Path: "total"}); err == nil {
		t.Error("flatten scalar should fail")
	}
	// Nest with missing field fails.
	if _, err := Chain(s, NestFields{Fields: []string{"zz"}, Under: "m"}); err == nil {
		t.Error("nest missing field should fail")
	}
	if _, err := Chain(s, NestFields{Fields: []string{"date"}, Under: "total"}); err == nil {
		t.Error("nest under existing field should fail")
	}
}

func TestMigrateAddAndRemove(t *testing.T) {
	docs := MigrateAll(orderDocs(),
		AddField{Path: "channel", Type: FTString, Default: mmvalue.String("web")},
		RemoveField{Path: "items"},
		RenameField{From: "status", To: "state"},
	)
	for _, d := range docs {
		if v, ok := mmvalue.ParsePath("channel").Lookup(d); !ok || !mmvalue.Equal(v, mmvalue.String("web")) {
			t.Error("default not injected")
		}
		if _, ok := mmvalue.ParsePath("items").Lookup(d); ok {
			t.Error("removed field survived migration")
		}
		if _, ok := mmvalue.ParsePath("state").Lookup(d); !ok {
			t.Error("rename migration lost value")
		}
	}
	// Originals untouched.
	orig := orderDocs()
	if _, ok := mmvalue.ParsePath("items").Lookup(orig[0]); !ok {
		t.Error("MigrateAll must clone inputs")
	}
}

func TestCheckCompat(t *testing.T) {
	s := Infer(orderDocs())
	queries := StandardQuerySet()
	rep := CheckAll(queries, s)
	if rep.Valid != rep.Total {
		for _, r := range rep.Results {
			if !r.Valid {
				t.Errorf("baseline schema breaks %s: %s", r.Query, r.Reason)
			}
		}
	}
	// After removing items, the items query breaks.
	s2, _ := Chain(s, RemoveField{Path: "items"})
	rep = CheckAll(queries, s2)
	if rep.Valid != rep.Total-1 {
		t.Errorf("after remove: %d/%d valid", rep.Valid, rep.Total)
	}
	// After retyping total to string, the range query breaks.
	s3, _ := Chain(s, ChangeType{Path: "total", NewType: FTString})
	res := CheckCompat(HistQuery{Name: "r", Needs: map[string]FieldType{"total": FTFloat}}, s3)
	if res.Valid {
		t.Error("retyped field should break typed query")
	}
	if !strings.Contains(res.Reason, "string") {
		t.Errorf("reason = %s", res.Reason)
	}
	// FTNull accepts any type.
	res = CheckCompat(HistQuery{Name: "a", Needs: map[string]FieldType{"total": FTNull}}, s3)
	if !res.Valid {
		t.Error("any-type query should survive retype")
	}
	// Int/Float compatibility.
	res = CheckCompat(HistQuery{Name: "n", Needs: map[string]FieldType{"customer_id": FTFloat}}, s)
	if !res.Valid {
		t.Error("int field should accept float predicate")
	}
}

func TestCompatDegradesMonotonicallyWithChainLength(t *testing.T) {
	docs := orderDocs()
	base := Infer(docs)
	chain := StandardEvolutionChain()
	queries := StandardQuerySet()
	prev := 1.0
	for k := 0; k <= len(chain); k++ {
		s, err := Chain(base, chain[:k]...)
		if err != nil {
			t.Fatalf("chain length %d: %v", k, err)
		}
		rep := CheckAll(queries, s)
		frac := float64(rep.Valid) / float64(rep.Total)
		if frac > prev+1e-9 {
			t.Errorf("validity increased at k=%d: %g -> %g", k, prev, frac)
		}
		prev = frac
	}
	if prev >= 1 {
		t.Error("full chain should break at least one query")
	}
}

func TestRewriteForOps(t *testing.T) {
	ops := []Op{
		RenameField{From: "status", To: "state"},
		NestFields{Fields: []string{"date"}, Under: "meta"},
		FlattenField{Path: "ship"},
		RemoveField{Path: "items"},
	}
	q := HistQuery{Name: "q", Needs: map[string]FieldType{
		"status":    FTString,
		"date":      FTString,
		"ship.city": FTString,
	}}
	rw, ok := RewriteForOps(q, ops)
	if !ok {
		t.Fatal("rewrite should fully succeed for this query")
	}
	for _, want := range []string{"state", "meta.date", "ship_city"} {
		if _, present := rw.Needs[want]; !present {
			t.Errorf("rewritten query missing %q: %v", want, rw.Needs)
		}
	}
	// Removed paths cannot be rewritten.
	q2 := HistQuery{Name: "q2", Needs: map[string]FieldType{"items": FTArray}}
	if _, ok := RewriteForOps(q2, ops); ok {
		t.Error("rewrite across removal should fail")
	}
	// Rewriting then checking against the evolved schema validates.
	base := Infer(orderDocs())
	evolved, err := Chain(base, ops...)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckCompat(rw, evolved)
	if !res.Valid {
		t.Errorf("rewritten query invalid on evolved schema: %s", res.Reason)
	}
}

func TestRewriteImprovesCompatFraction(t *testing.T) {
	// The ablation the evolution experiment reports: with query
	// rewriting, strictly more historical queries survive.
	base := Infer(orderDocs())
	chain := StandardEvolutionChain()
	queries := StandardQuerySet()
	evolved, err := Chain(base, chain...)
	if err != nil {
		t.Fatal(err)
	}
	plainRep := CheckAll(queries, evolved)
	plain := float64(plainRep.Valid) / float64(plainRep.Total)
	var rewritten []HistQuery
	for _, q := range queries {
		if rw, ok := RewriteForOps(q, chain); ok {
			rewritten = append(rewritten, rw)
		}
	}
	rwRep := CheckAll(rewritten, evolved)
	rwFrac := float64(rwRep.Valid) / float64(len(queries))
	if rwFrac <= plain {
		t.Errorf("rewriting should help: plain=%g rewritten=%g", plain, rwFrac)
	}
}

func TestOpMetadata(t *testing.T) {
	ops := StandardEvolutionChain()
	destructive := 0
	for _, op := range ops {
		if op.Name() == "" || op.String() == "" {
			t.Errorf("op %T missing metadata", op)
		}
		if op.Destructive() {
			destructive++
		}
	}
	if destructive == 0 || destructive == len(ops) {
		t.Errorf("standard chain should mix destructive/additive, got %d/%d", destructive, len(ops))
	}
}
