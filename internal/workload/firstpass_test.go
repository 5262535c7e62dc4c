package workload

import (
	"errors"
	"sync"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

// TestConcurrentFirstPassesBuildOnce runs 1, 2 and 4 concurrent Q1–Q13
// passes over a freshly loaded store: however many readers miss the
// join cache at once, each projection key is built once, so the builds
// equal those of one pass alone, and a second pass builds nothing.
func TestConcurrentFirstPassesBuildOnce(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.5, Seed: 1234})
	info := InfoOf(ds)
	var keys uint64
	for _, clients := range []int{1, 2, 4} {
		db := udbms.Open()
		if err := ds.Load(db.Stores()); err != nil {
			t.Fatal(err)
		}
		e := NewUDBMSEngine(db)
		pass := func(seed uint64) {
			p := NewParamGen(info, seed, 0).Next()
			for _, q := range AllQueries {
				if _, err := e.RunQuery(q, p); err != nil {
					t.Error(q, err)
				}
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pass(uint64(c))
			}()
		}
		close(start)
		wg.Wait()
		builds := db.JoinStats().Builds
		t.Logf("%d clients: %d builds", clients, builds)
		if clients == 1 {
			keys = builds
		}
		if builds != keys || keys == 0 {
			t.Errorf("%d concurrent first passes: %d builds, want %d (one per projection key)", clients, builds, keys)
		}
		if pass(99); db.JoinStats().Builds != builds {
			t.Errorf("%d clients: a second pass built %d more", clients, db.JoinStats().Builds-builds)
		}
	}
}

// BenchmarkColdPass times one Q1–Q13 pass over a store that has just
// taken a commit in each of its five stores, so that every projection,
// dict and join build of the pass is cold, as in the first pass of a
// read-only round. The commits (each rewrites one record unchanged) run
// with the timer stopped; builds/op is the store scans per pass.
func BenchmarkColdPass(b *testing.B) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 1234})
	db := udbms.Open()
	if err := ds.Load(db.Stores()); err != nil {
		b.Fatal(err)
	}
	e := NewUDBMSEngine(db)
	p := NewParamGen(InfoOf(ds), 1, 0).Next()
	orders := db.Docs.Collection("orders")
	customers, _ := db.Relational.Table("customer")
	same := func(v mmvalue.Value) (mmvalue.Value, error) { return v, nil }
	touch := func() error {
		cust, _ := customers.Get(nil, 1)
		return errors.Join(
			orders.Update(nil, datagen.OrderID(1), same),
			customers.ApplyPut(nil, cust),
			db.KV.Put(nil, "coldpass", mmvalue.Int(1)),
			db.Graph.SetVertexProps(nil, graph.VID(datagen.CustomerVID(1)), same),
			db.XML.Update(nil, datagen.OrderID(1), func(n *xmlstore.Node) (*xmlstore.Node, error) { return n, nil }))
	}
	before := db.JoinStats()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		if err := touch(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range AllQueries {
			if _, err := e.RunQuery(q, p); err != nil {
				b.Fatal(q, err)
			}
		}
	}
	b.ReportMetric(float64(db.JoinStats().Builds-before.Builds)/float64(b.N), "builds/op")
}
