package datagen_test

import (
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/udbms"
)

// These tests live outside the package: udbms hands out its stores as
// a datagen.Target, so an in-package test importing udbms would be an
// import cycle.

func TestLoadIntoUDBMS(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 3})
	db := udbms.Open()
	err := ds.Load(db.Stores())
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tables["customer"] != len(ds.Customers) {
		t.Errorf("customers loaded = %d, want %d", st.Tables["customer"], len(ds.Customers))
	}
	if st.Collections["orders"] != len(ds.Orders) {
		t.Errorf("orders loaded = %d", st.Collections["orders"])
	}
	if st.Collections["products"] != len(ds.Products) {
		t.Errorf("products loaded = %d", st.Collections["products"])
	}
	if st.KVPairs != len(ds.FeedbackKeys) {
		t.Errorf("kv loaded = %d", st.KVPairs)
	}
	if st.XMLDocs != len(ds.Orders) {
		t.Errorf("xml loaded = %d", st.XMLDocs)
	}
	wantV := len(ds.Customers) + len(ds.Products)
	if st.Vertices != wantV {
		t.Errorf("vertices = %d, want %d", st.Vertices, wantV)
	}
	wantE := len(ds.KnowsEdges) + len(ds.PurchaseEdges)
	if st.Edges != wantE {
		t.Errorf("edges = %d, want %d", st.Edges, wantE)
	}
	// Standard indexes exist.
	cust, _ := db.Relational.Table("customer")
	if !cust.HasIndex("city") {
		t.Error("customer.city index missing")
	}
	if !db.Docs.Collection("orders").HasIndex("customer_id") {
		t.Error("orders.customer_id index missing")
	}
	// Spot check a cross-model chain: first order's customer exists in
	// the relational table and as a graph vertex.
	o := ds.Orders[0].MustObject()
	cid, _ := o.Get("customer_id")
	if _, ok := cust.Get(nil, cid.MustInt()); !ok {
		t.Error("order's customer missing from relational table")
	}
	if _, ok := db.Graph.GetVertex(nil, graph.VID(datagen.CustomerVID(int(cid.MustInt())))); !ok {
		t.Error("order's customer missing from graph")
	}
}

func BenchmarkLoadSF01(b *testing.B) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := udbms.Open()
		if err := ds.Load(db.Stores()); err != nil {
			b.Fatal(err)
		}
	}
}
