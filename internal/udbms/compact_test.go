package udbms

import (
	"fmt"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// records prints the record each model's rewrites below touch, as tx
// reads it.
func records(db *DB, tx *txn.Tx) string {
	doc, _ := db.Docs.Collection("orders").Get(tx, "o1")
	kv, _ := db.KV.Get(tx, "feedback/2/o1")
	var rev string
	if n, ok := db.XML.Get(tx, "o1"); ok {
		rev, _ = n.Attr("rev")
	}
	cust, _ := db.Relational.Table("customer")
	row, _ := cust.Get(tx, 1)
	return fmt.Sprint(doc, kv, rev, row)
}

// TestEngineWideCompact: writes in every model trim their chains as
// they go, but no further than an open snapshot, which reads each
// record as it began while the latest state moves on.
func TestEngineWideCompact(t *testing.T) {
	db := seedSmall(t)
	rewrite := func(i int) {
		t.Helper()
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
		if err := setFields(cust, nil, 1, "city", fmt.Sprintf("city%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(0)
	reader := db.Begin()
	began := records(db, reader)
	for i := 1; i <= 5; i++ {
		rewrite(i)
	}
	if got := records(db, reader); got != began {
		t.Errorf("the open snapshot reads %s, began with %s", got, began)
	}
	latest := records(db, nil)
	reader.Abort()
	rewrite(6)
	if got := records(db, nil); got == latest || got == began {
		t.Errorf("latest after the reader ended = %s, want the sixth rewrite", got)
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
