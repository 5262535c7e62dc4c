package udbms

import (
	"fmt"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/xmlstore"
)

func TestEngineWideCompact(t *testing.T) {
	db := seedSmall(t)
	// Generate garbage versions in every model.
	for i := 0; i < 5; i++ {
		if err := db.Docs.Collection("orders").SetPath(nil, "o1", "total", mmvalue.Float(float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := db.KV.Put(nil, "feedback/2/o1", mmvalue.ObjectOf("rating", i)); err != nil {
			t.Fatal(err)
		}
		err := db.XML.Update(nil, "o1", func(n *xmlstore.Node) (*xmlstore.Node, error) {
			n.SetAttr("rev", fmt.Sprint(i))
			return n, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cust, _ := db.Relational.Table("customer")
		err = setFields(cust, nil, 1, "city", fmt.Sprintf("city%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	dropped := db.Compact(0) // horizon defaults to now
	if dropped < 16 {
		t.Errorf("Compact dropped %d versions, want >= 16", dropped)
	}
	// Everything still readable at latest.
	if _, ok := db.Docs.Collection("orders").Get(nil, "o1"); !ok {
		t.Error("doc lost in compact")
	}
	if _, ok := db.KV.Get(nil, "feedback/2/o1"); !ok {
		t.Error("kv lost in compact")
	}
	if _, ok := db.XML.Get(nil, "o1"); !ok {
		t.Error("xml lost in compact")
	}
	cust, _ := db.Relational.Table("customer")
	if _, ok := cust.Get(nil, 1); !ok {
		t.Error("row lost in compact")
	}
	// A second compact finds nothing more.
	if again := db.Compact(0); again != 0 {
		t.Errorf("second compact dropped %d", again)
	}
}

func TestCompactPreservesExplicitHorizon(t *testing.T) {
	db := Open()
	if err := db.KV.Put(nil, "k", mmvalue.Int(1)); err != nil {
		t.Fatal(err)
	}
	tsAfterV1 := db.Manager().Oracle().Current()
	if err := db.KV.Put(nil, "k", mmvalue.Int(2)); err != nil {
		t.Fatal(err)
	}
	// Horizon at v1's timestamp: v1 must survive (a reader could still
	// be at that snapshot).
	db.Compact(tsAfterV1)
	if v, ok := db.KV.Get(nil, "k"); !ok || !mmvalue.Equal(v, mmvalue.Int(2)) {
		t.Error("latest version corrupted by horizon compact")
	}
}

func TestStatsAfterDeletes(t *testing.T) {
	db := seedSmall(t)
	if err := db.Docs.Collection("orders").Delete(nil, "o1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Graph.RemoveVertex(nil, "c3"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Collections["orders"] != 3 {
		t.Errorf("orders after delete = %d", st.Collections["orders"])
	}
	if st.Vertices != 2 {
		t.Errorf("vertices after removal = %d", st.Vertices)
	}
	if st.Edges != 1 { // k23 removed with c3
		t.Errorf("edges after vertex removal = %d", st.Edges)
	}
}

func TestPipelineUnderExplicitSnapshot(t *testing.T) {
	db := seedSmall(t)
	tx := db.Begin()
	defer tx.Abort()
	// Mutate after the snapshot.
	cust, _ := db.Relational.Table("customer")
	if err := cust.Insert(nil, mmvalue.ObjectOf("id", 99, "name", "late", "city", "hki")); err != nil {
		t.Fatal(err)
	}
	n, err := db.Pipeline(tx).
		FromRelational("customer", relational.Col("city").Eq("hki")).
		Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("snapshot pipeline saw %d customers, want 3", n)
	}
	n, err = db.Pipeline(nil).
		FromRelational("customer", relational.Col("city").Eq("hki")).
		Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("latest pipeline saw %d customers, want 4", n)
	}
}
