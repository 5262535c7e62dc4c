package federation

import (
	"errors"
	"testing"
	"time"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

func seedFed(t testing.TB) *Federation {
	t.Helper()
	f := Open()
	cust, err := f.Relational.CreateTable("customer", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
	))
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert(nil, mmvalue.ObjectOf("id", 1, "name", "alice"))
	f.Docs.Collection("orders").Insert(nil, mmvalue.ObjectOf("_id", "o1", "customer_id", 1, "total", 10.0))
	f.KV.Put(nil, "feedback/1/o1", mmvalue.ObjectOf("rating", 4))
	f.XML.Put(nil, "o1", xmlstore.MustParse(`<invoice id="o1"><total>10</total></invoice>`))
	f.Graph.AddVertex(nil, "c1", "customer", mmvalue.Null)
	return f
}

func TestFederatedTransactionCommit(t *testing.T) {
	f := seedFed(t)
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		if err := f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "total", mmvalue.Float(99)); err != nil {
			return err
		}
		if err := f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 5)); err != nil {
			return err
		}
		return f.XML.Update(ftx.XML(), "o1", func(n *xmlstore.Node) (*xmlstore.Node, error) {
			n.SetAttr("status", "paid")
			return n, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := f.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(99)) {
		t.Error("doc commit lost")
	}
	inv, _ := f.XML.Get(nil, "o1")
	if v, _ := inv.Attr("status"); v != "paid" {
		t.Error("xml commit lost")
	}
}

func TestFederatedAbortRollsBackAllStores(t *testing.T) {
	f := seedFed(t)
	boom := errors.New("boom")
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "total", mmvalue.Float(-5))
		f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 0))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	doc, _ := f.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(10)) {
		t.Error("aborted doc write leaked")
	}
	fb, _ := f.KV.Get(nil, "feedback/1/o1")
	if v, _ := fb.MustObject().Get("rating"); !mmvalue.Equal(v, mmvalue.Int(4)) {
		t.Error("aborted kv write leaked")
	}
}

func TestCoordinatorCrashLeavesPartialState(t *testing.T) {
	f := seedFed(t)
	f.CrashAfterNCommits = 1 // commit exactly one participant, then crash
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		// Touch doc first, then kv: commit order follows first use.
		if err := f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "total", mmvalue.Float(500)); err != nil {
			return err
		}
		return f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 1))
	})
	if !errors.Is(err, ErrCoordinatorCrash) {
		t.Fatalf("err = %v, want coordinator crash", err)
	}
	// The doc store committed; the kv store aborted: atomicity violated.
	doc, _ := f.Docs.Collection("orders").Get(nil, "o1")
	docTotal, _ := mmvalue.ParsePath("total").Lookup(doc)
	fb, _ := f.KV.Get(nil, "feedback/1/o1")
	rating, _ := fb.MustObject().Get("rating")
	committedDoc := mmvalue.Equal(docTotal, mmvalue.Float(500))
	committedKV := mmvalue.Equal(rating, mmvalue.Int(1))
	if !committedDoc || committedKV {
		t.Errorf("expected partial commit (doc=yes kv=no), got doc=%v kv=%v", committedDoc, committedKV)
	}
	// Injection auto-resets: the next transaction succeeds fully.
	if f.CrashAfterNCommits != -1 {
		t.Error("crash injection should reset")
	}
	err = f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		return f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 2))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHopLatencyCharged(t *testing.T) {
	f := seedFed(t)
	f.HopLatency = 2 * time.Millisecond
	start := time.Now()
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		// Two stores: begin hops (2) + prepare (2) + commit (2) = 6 hops minimum.
		f.KV.Put(ftx.KV(), "k", mmvalue.Int(1))
		f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "x", mmvalue.Int(1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 12*time.Millisecond {
		t.Errorf("expected >= 12ms of hop latency, got %v", elapsed)
	}
}

func TestNoGlobalSnapshotAcrossStores(t *testing.T) {
	f := seedFed(t)
	// Two separate local transactions observe independent states:
	// update doc+kv "atomically", but a reader that reads kv first and
	// doc later (each at its own store's latest) can see the torn state.
	// Here we simply demonstrate the stores have independent oracles.
	ts1 := f.docMgr.Oracle().Current()
	f.KV.Put(nil, "only-kv", mmvalue.Int(1))
	ts2 := f.docMgr.Oracle().Current()
	if ts1 != ts2 {
		t.Error("kv write should not advance the doc store's oracle")
	}
	if f.kvMgr.Oracle().Current() == 0 {
		t.Error("kv write should advance the kv oracle")
	}
}

func TestFTxLocalReuse(t *testing.T) {
	f := seedFed(t)
	ftx := f.Begin()
	a := ftx.KV()
	b := ftx.KV()
	if a != b {
		t.Error("repeated access must reuse the local transaction")
	}
	g := ftx.Graph()
	r := ftx.Relational()
	if g == nil || r == nil {
		t.Error("lazy locals missing")
	}
	ftx.Abort()
	if err := f.KV.Put(a, "x", mmvalue.Int(1)); err == nil {
		t.Error("aborted local tx should reject writes")
	}
}

func TestSeedLandsInEveryStore(t *testing.T) {
	f := seedFed(t)
	cust, _ := f.Relational.Table("customer")
	if cust.Count() != 1 || f.Docs.Collection("orders").Count() != 1 ||
		f.Graph.VertexCount(nil) != 1 || f.KV.Len() != 1 || f.XML.Count() != 1 {
		t.Errorf("live records: customer=%d orders=%d vertices=%d kv=%d xml=%d, want 1 each",
			cust.Count(), f.Docs.Collection("orders").Count(),
			f.Graph.VertexCount(nil), f.KV.Len(), f.XML.Count())
	}
}
