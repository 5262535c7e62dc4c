package udbms

import (
	"errors"
	"fmt"
	"testing"

	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// seedSmall loads a miniature Figure-1 dataset: 3 customers
// (relational + graph vertices), orders (documents), feedback (kv),
// invoices (xml), knows edges (graph).
func seedSmall(t testing.TB) *DB {
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
	orders := db.Docs.Collection("orders")
	for i := 1; i <= 3; i++ {
		if err := cust.Insert(nil, mmvalue.ObjectOf("id", i, "name", fmt.Sprintf("cust%d", i), "city", "hki")); err != nil {
			t.Fatal(err)
		}
		if err := db.Graph.AddVertex(nil, graph.VID(fmt.Sprintf("c%d", i)), "customer", mmvalue.ObjectOf("id", i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Graph.AddEdge(nil, "k12", "knows", "c1", "c2", mmvalue.Null)
	db.Graph.AddEdge(nil, "k23", "knows", "c2", "c3", mmvalue.Null)
	for i := 1; i <= 4; i++ {
		cid := (i % 3) + 1
		if err := orders.Insert(nil, mmvalue.ObjectOf(
			"_id", fmt.Sprintf("o%d", i), "customer_id", cid, "total", float64(i*10))); err != nil {
			t.Fatal(err)
		}
		db.KV.Put(nil, fmt.Sprintf("feedback/%d/o%d", cid, i), mmvalue.ObjectOf("rating", i))
		db.XML.Put(nil, fmt.Sprintf("o%d", i), xmlstore.MustParse(
			fmt.Sprintf(`<invoice id="o%d"><total>%d</total></invoice>`, i, i*10)))
	}
	return db
}

func TestOpenAndStats(t *testing.T) {
	db := seedSmall(t)
	st := db.Stats()
	if st.Tables["customer"] != 3 {
		t.Errorf("customers = %d", st.Tables["customer"])
	}
	if st.Collections["orders"] != 4 {
		t.Errorf("orders = %d", st.Collections["orders"])
	}
	if st.Vertices != 3 || st.Edges != 2 {
		t.Errorf("graph = %d/%d", st.Vertices, st.Edges)
	}
	if st.KVPairs != 4 || st.XMLDocs != 4 {
		t.Errorf("kv/xml = %d/%d", st.KVPairs, st.XMLDocs)
	}
}

func TestCrossModelTransactionAtomicity(t *testing.T) {
	db := seedSmall(t)
	// The paper's example: an order update touches JSON Orders,
	// key-value Feedback and XML Invoice atomically.
	err := db.RunTx(func(tx *txn.Tx) error {
		if err := db.Docs.Collection("orders").SetPath(tx, "o1", "total", mmvalue.Float(999)); err != nil {
			return err
		}
		if err := db.KV.Put(tx, "feedback/2/o1", mmvalue.ObjectOf("rating", 5)); err != nil {
			return err
		}
		return db.XML.Update(tx, "o1", func(n *xmlstore.Node) (*xmlstore.Node, error) {
			total, _ := n.FirstChild("total")
			total.Children = []*xmlstore.Node{xmlstore.NewText("999")}
			return n, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := db.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(999)) {
		t.Error("doc side lost")
	}
	inv, _ := db.XML.Get(nil, "o1")
	tot, _ := inv.FirstChild("total")
	if tot.InnerText() != "999" {
		t.Error("xml side lost")
	}

	// Failure in the last leg rolls back all three models.
	boom := errors.New("boom")
	err = db.RunTx(func(tx *txn.Tx) error {
		db.Docs.Collection("orders").SetPath(tx, "o1", "total", mmvalue.Float(-1))
		db.KV.Put(tx, "feedback/2/o1", mmvalue.ObjectOf("rating", 0))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	doc, _ = db.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(999)) {
		t.Error("aborted doc write leaked")
	}
	fb, _ := db.KV.Get(nil, "feedback/2/o1")
	if v, _ := fb.MustObject().Get("rating"); !mmvalue.Equal(v, mmvalue.Int(5)) {
		t.Error("aborted kv write leaked")
	}
}

func TestCrossModelSnapshot(t *testing.T) {
	db := seedSmall(t)
	reader := db.Begin()
	// Concurrent writer changes all models.
	db.RunTx(func(tx *txn.Tx) error {
		db.Docs.Collection("orders").SetPath(tx, "o1", "total", mmvalue.Float(777))
		db.KV.Put(tx, "feedback/2/o1", mmvalue.ObjectOf("rating", 1))
		db.Graph.AddVertex(tx, "c9", "customer", mmvalue.Null)
		return nil
	})
	// Reader sees the pre-write world across every model.
	doc, _ := db.Docs.Collection("orders").Get(reader, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(10)) {
		t.Errorf("doc snapshot = %s", v)
	}
	if _, ok := db.Graph.GetVertex(reader, "c9"); ok {
		t.Error("graph snapshot sees future vertex")
	}
	fb, _ := db.KV.Get(reader, "feedback/2/o1")
	if v, _ := fb.MustObject().Get("rating"); !mmvalue.Equal(v, mmvalue.Int(1)) && v.MustInt() == 1 {
		t.Error("kv snapshot sees future write")
	}
	reader.Abort()
}

func TestPipelineRelationalToDocsToKV(t *testing.T) {
	db := seedSmall(t)
	rows, err := db.Pipeline(nil).
		FromRelational("customer", relational.Col("city").Eq("hki")).
		JoinDocuments("orders", "id", "customer_id", "orders").
		JoinKVPrefix(func(r mmvalue.Value) string {
			id, _ := r.MustObject().Get("id")
			return fmt.Sprintf("feedback/%d/", id.MustInt())
		}, "feedback").
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("pipeline rows = %d", len(rows))
	}
	totalOrders := 0
	totalFeedback := 0
	for _, r := range rows {
		o := r.MustObject()
		ordersArr, _ := o.GetOr("orders", mmvalue.Null).AsArray()
		fbArr, _ := o.GetOr("feedback", mmvalue.Null).AsArray()
		totalOrders += len(ordersArr)
		totalFeedback += len(fbArr)
	}
	if totalOrders != 4 || totalFeedback != 4 {
		t.Errorf("joined %d orders, %d feedback; want 4, 4", totalOrders, totalFeedback)
	}
}

// hopCount is a Snapshot that counts its hops.
type hopCount struct {
	Snapshot
	hops *int
}

func (h hopCount) Hop() { *h.hops++ }

// TestJoinKVPrefixEmptyPrefix pins that a row whose prefix is "" gets an
// empty match array without a store request: no Hop, where a non-empty
// prefix costs one per row.
func TestJoinKVPrefixEmptyPrefix(t *testing.T) {
	db := seedSmall(t)
	for _, c := range []struct {
		prefix    string
		wantHops  int
		wantMatch int
	}{{"", 1, 0}, {"feedback/", 1 + 3, 3 * 4}} {
		hops := 0
		rows, err := PipelineOver(db.Stores(), hopCount{hops: &hops}).
			FromRelational("customer", relational.Col("city").Eq("hki")).
			JoinKVPrefix(func(mmvalue.Value) string { return c.prefix }, "fb").
			Rows()
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for _, r := range rows {
			fb, ok := r.MustObject().GetOr("fb", mmvalue.Null).AsArray()
			if !ok {
				t.Fatalf("prefix %q: row %s has no match array", c.prefix, r)
			}
			matches += len(fb)
		}
		if len(rows) != 3 || hops != c.wantHops || matches != c.wantMatch {
			t.Errorf("prefix %q: %d rows, %d hops, %d matches; want 3, %d, %d", c.prefix, len(rows), hops, matches, c.wantHops, c.wantMatch)
		}
	}
}

func TestPipelineLimitCountErr(t *testing.T) {
	db := seedSmall(t)
	p := db.Pipeline(nil).
		FromDocuments("orders", nil).
		Limit(2)
	n, err := p.Count()
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if rows, err := p.Rows(); err != nil || len(rows) != 2 {
		t.Fatalf("Rows = %d rows, %v; want 2", len(rows), err)
	}
	// Unknown table errors at the terminal.
	p = db.Pipeline(nil).FromRelational("nope", nil)
	if _, err := p.Count(); err == nil {
		t.Error("unknown table should error")
	}
	// Error short-circuits later stages.
	if _, err := p.JoinDocuments("orders", "id", "customer_id", "x").Rows(); err == nil {
		t.Error("error should propagate")
	}
	if _, err := db.Pipeline(nil).FromRelational("customer", nil).JoinRelational("nope", "id", "id", "x").Rows(); err == nil {
		t.Error("join against unknown table should error")
	}
}

func TestPipelineJoinRelational(t *testing.T) {
	db := seedSmall(t)
	rows, err := db.Pipeline(nil).
		FromDocuments("orders", nil).
		JoinRelational("customer", "customer_id", "id", "cust").
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		arr, _ := r.MustObject().GetOr("cust", mmvalue.Null).AsArray()
		if len(arr) != 1 {
			t.Errorf("order row should join exactly 1 customer, got %d", len(arr))
		}
	}
}

func TestCrossModelDeadlockResolved(t *testing.T) {
	db := seedSmall(t)
	// Two transactions locking kv and doc resources in opposite order;
	// RunTx retries the victim, so both eventually succeed.
	done := make(chan error, 2)
	go func() {
		done <- db.RunTx(func(tx *txn.Tx) error {
			if err := db.KV.Put(tx, "lockA", mmvalue.Int(1)); err != nil {
				return err
			}
			return db.Docs.Collection("orders").SetPath(tx, "o1", "x", mmvalue.Int(1))
		})
	}()
	go func() {
		done <- db.RunTx(func(tx *txn.Tx) error {
			if err := db.Docs.Collection("orders").SetPath(tx, "o1", "y", mmvalue.Int(2)); err != nil {
				return err
			}
			return db.KV.Put(tx, "lockA", mmvalue.Int(2))
		})
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("txn %d: %v", i, err)
		}
	}
}
