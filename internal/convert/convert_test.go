package convert

import (
	"sort"
	"strings"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/xmlstore"
)

func goldDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	return datagen.Generate(datagen.Config{ScaleFactor: 0.03, Seed: 42})
}

func TestShredAndNestRoundTripOrders(t *testing.T) {
	ds := goldDataset(t)
	sr, err := ShredDocs("orders", ds.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Parent == nil || len(sr.Parent.Rows) != len(ds.Orders) {
		t.Fatalf("parent rows = %d", len(sr.Parent.Rows))
	}
	// Orders have one array-of-objects field: items.
	if _, ok := sr.Children["items"]; !ok {
		t.Fatalf("items child table missing; children: %v", childKeys(sr))
	}
	// Child rows = total item count.
	wantItems := 0
	for _, o := range ds.Orders {
		items, _ := mmvalue.ParsePath("items").LookupOr(o, mmvalue.Null).AsArray()
		wantItems += len(items)
	}
	if got := len(sr.Children["items"].Rows); got != wantItems {
		t.Errorf("item rows = %d, want %d", got, wantItems)
	}
	// Every parent row validates against its schema.
	for _, r := range sr.Parent.Rows {
		if err := sr.Parent.Schema.ValidateRow(r); err != nil {
			t.Fatalf("shredded row invalid: %v", err)
		}
	}
	for _, r := range sr.Children["items"].Rows {
		if err := sr.Children["items"].Schema.ValidateRow(r); err != nil {
			t.Fatalf("shredded child row invalid: %v", err)
		}
	}
	// Round trip: nest back and compare (gold standard check).
	back, err := NestShredded(sr)
	if err != nil {
		t.Fatal(err)
	}
	fid := Fidelity(ds.Orders, back)
	if fid != 1 {
		// Diagnose first mismatch.
		for i := range ds.Orders {
			if !mmvalue.Equal(ds.Orders[i], back[i]) {
				t.Fatalf("fidelity %.3f; first mismatch at %d:\norig: %s\nback: %s",
					fid, i, ds.Orders[i], back[i])
			}
		}
		t.Fatalf("fidelity = %.3f (length mismatch?)", fid)
	}
}

func childKeys(sr *ShredResult) []string {
	var out []string
	for k := range sr.Children {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestShredProductsWithScalarArrays(t *testing.T) {
	ds := goldDataset(t)
	sr, err := ShredDocs("products", ds.Products)
	if err != nil {
		t.Fatal(err)
	}
	// tags is an array of strings -> JSON column, recorded in Notes.
	foundNote := false
	for _, n := range sr.Notes {
		if strings.Contains(n, "tags") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Errorf("scalar-array JSON encoding not documented in notes: %v", sr.Notes)
	}
	back, err := NestShredded(sr)
	if err != nil {
		t.Fatal(err)
	}
	if fid := Fidelity(ds.Products, back); fid != 1 {
		t.Errorf("product fidelity = %.3f", fid)
	}
}

func TestShredErrors(t *testing.T) {
	if _, err := ShredDocs("x", nil); err == nil {
		t.Error("empty collection should fail")
	}
	noID := []mmvalue.Value{mmvalue.ObjectOf("a", 1)}
	if _, err := ShredDocs("x", noID); err == nil {
		t.Error("docs without _id should fail")
	}
}

func TestShredHeterogeneousDocs(t *testing.T) {
	docs := []mmvalue.Value{
		mmvalue.MustParseJSON(`{"_id":"a","n":1,"extra":"x","nested":{"deep":true}}`),
		mmvalue.MustParseJSON(`{"_id":"b","n":2.5}`),
		mmvalue.MustParseJSON(`{"_id":"c","n":3,"mix":"str"}`),
	}
	sr, err := ShredDocs("h", docs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NestShredded(sr)
	if err != nil {
		t.Fatal(err)
	}
	if fid := Fidelity(docs, back); fid != 1 {
		for i := range docs {
			t.Logf("orig %s | back %s", docs[i], back[i])
		}
		t.Errorf("heterogeneous fidelity = %.3f", fid)
	}
}

func TestRowsToDocsRoundTrip(t *testing.T) {
	ds := goldDataset(t)
	docs := RowsToDocs(ds.Customers, "id")
	if len(docs) != len(ds.Customers) {
		t.Fatal("length mismatch")
	}
	// _id is a string render of the pk.
	if idv, _ := docs[0].MustObject().Get("_id"); idv.Kind() != mmvalue.KindString {
		t.Error("_id should be string")
	}
	rows := DocsToRows(docs, "id")
	if fid := Fidelity(ds.Customers, rows); fid != 1 {
		t.Errorf("rows->docs->rows fidelity = %.3f", fid)
	}
	// Without _pkval the string _id is used.
	d2 := mmvalue.ObjectOf("_id", "k7", "a", 1)
	r2 := DocsToRows([]mmvalue.Value{d2}, "key")
	if v, _ := r2[0].MustObject().Get("key"); !mmvalue.Equal(v, mmvalue.String("k7")) {
		t.Error("fallback pk from _id failed")
	}
}

func TestXMLJSONRoundTripInvoices(t *testing.T) {
	ds := goldDataset(t)
	exact := 0
	total := 0
	for oid, inv := range ds.Invoices {
		total++
		doc := XMLToDoc(inv)
		back, err := DocToXML(doc)
		if err != nil {
			t.Fatalf("invoice %s: %v", oid, err)
		}
		if xmlstore.Equal(inv, back) {
			exact++
		} else if exact == total-1 {
			t.Logf("first mismatch %s:\norig: %s\nback: %s", oid, xmlstore.Marshal(inv), xmlstore.Marshal(back))
		}
	}
	if exact != total {
		t.Errorf("invoice XML round trip: %d/%d exact", exact, total)
	}
}

func TestXMLToDocConventions(t *testing.T) {
	n := xmlstore.MustParse(`<r a="1"><single x="y">text</single><multi>1</multi><multi>2</multi><empty/></r>`)
	doc := XMLToDoc(n)
	root, _ := mmvalue.ParsePath("r").Lookup(doc)
	obj := root.MustObject()
	if v, _ := obj.Get("@a"); !mmvalue.Equal(v, mmvalue.String("1")) {
		t.Error("attribute convention broken")
	}
	single, _ := obj.Get("single")
	if v, _ := single.MustObject().Get("#text"); !mmvalue.Equal(v, mmvalue.String("text")) {
		t.Error("#text convention broken")
	}
	multi, _ := obj.Get("multi")
	if elems, ok := multi.AsArray(); !ok || len(elems) != 2 {
		t.Error("repeated children should become an array")
	} else if !mmvalue.Equal(elems[0], mmvalue.String("1")) {
		t.Error("text-only element should collapse to string")
	}
	if v, _ := obj.Get("empty"); !v.IsNull() && v.Kind() != mmvalue.KindObject {
		t.Errorf("empty element = %s", v)
	}
	// Round trip of this structure.
	back, err := DocToXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !xmlstore.Equal(n, back) {
		t.Errorf("convention round trip:\norig %s\nback %s", xmlstore.Marshal(n), xmlstore.Marshal(back))
	}
}

func TestXMLJSONDocumentedLoss(t *testing.T) {
	// Interleaved differently-named siblings lose relative order —
	// the documented lossy corner.
	n := xmlstore.MustParse(`<r><a>1</a><b>2</b><a>3</a></r>`)
	back, err := DocToXML(XMLToDoc(n))
	if err != nil {
		t.Fatal(err)
	}
	if xmlstore.Equal(n, back) {
		t.Skip("grouping happened to preserve order")
	}
	// The multiset of children is preserved even though order is not.
	counts := map[string]int{}
	for _, c := range back.Children {
		counts[c.Name]++
	}
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Error("children lost, not just reordered")
	}
}

func TestDocToXMLErrors(t *testing.T) {
	if _, err := DocToXML(mmvalue.Int(1)); err == nil {
		t.Error("non-object should fail")
	}
	if _, err := DocToXML(mmvalue.ObjectOf("a", 1, "b", 2)); err == nil {
		t.Error("multi-key root should fail")
	}
}

func TestRelationalGraphRoundTrip(t *testing.T) {
	ds := goldDataset(t)
	gs := RowsToGraphSpec(ds.Customers, "id", "customer:", "customer", nil)
	if len(gs.Vertices) != len(ds.Customers) {
		t.Fatalf("vertices = %d", len(gs.Vertices))
	}
	back := GraphSpecToRows(gs, "customer")
	if fid := Fidelity(ds.Customers, back); fid != 1 {
		t.Errorf("graph round trip fidelity = %.3f", fid)
	}
	// FK edges.
	orders := []mmvalue.Value{
		mmvalue.ObjectOf("oid", "o1", "cid", 1),
		mmvalue.ObjectOf("oid", "o2", "cid", 2),
		mmvalue.ObjectOf("oid", "o3"), // no FK -> no edge
	}
	gs2 := RowsToGraphSpec(orders, "oid", "order:", "order",
		[]FK{{Column: "cid", RefPrefix: "customer:", EdgeLabel: "placed_by"}})
	if len(gs2.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(gs2.Edges))
	}
	if gs2.Edges[0].From != "order:o1" || gs2.Edges[0].To != "customer:1" {
		t.Errorf("edge = %+v", gs2.Edges[0])
	}
	if GraphSpecToRows(gs2, "nope") != nil {
		t.Error("unknown label should return nothing")
	}
}

func TestKVRoundTrip(t *testing.T) {
	ds := goldDataset(t)
	var pairs []KVPair
	for _, k := range ds.FeedbackKeys {
		pairs = append(pairs, KVPair{Key: k, Value: ds.Feedback[k]})
	}
	rows, err := KVToRows(pairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RowsToKV(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pairs) {
		t.Fatal("length mismatch")
	}
	for i := range pairs {
		if back[i].Key != pairs[i].Key || !mmvalue.Equal(back[i].Value, pairs[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	// Bad JSON column surfaces an error.
	badRow := mmvalue.ObjectOf("k", "x", "v_json", "{")
	if _, err := RowsToKV([]mmvalue.Value{badRow}); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestFidelity(t *testing.T) {
	a := []mmvalue.Value{mmvalue.Int(1), mmvalue.Int(2), mmvalue.Int(3)}
	b := []mmvalue.Value{mmvalue.Int(1), mmvalue.Int(9), mmvalue.Int(3)}
	if f := Fidelity(a, b); f < 0.66 || f > 0.67 {
		t.Errorf("fidelity = %g", f)
	}
	if Fidelity(nil, nil) != 1 {
		t.Error("empty fidelity should be 1")
	}
	if f := Fidelity(a, a[:1]); f > 0.34 {
		t.Errorf("length-mismatch fidelity = %g", f)
	}
	if Fidelity(a, a) != 1 {
		t.Error("identical fidelity should be 1")
	}
}

func BenchmarkShredOrders(b *testing.B) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShredDocs("orders", ds.Orders); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLToDoc(b *testing.B) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 1})
	var invs []*xmlstore.Node
	for _, inv := range ds.Invoices {
		invs = append(invs, inv)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XMLToDoc(invs[i%len(invs)])
	}
}
