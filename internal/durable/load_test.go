package durable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// loadLoop is one of datagen.Load's record loops: the keys it writes, in
// load order, and whether a recovered database holds a given one.
type loadLoop struct {
	name    string
	keys    []string
	present func(d *DB, key string) bool
}

// loadLoops lists datagen.Load's nine record loops in the order it runs
// them.
func loadLoops(ds *datagen.Dataset) []loadLoop {
	var custIDs, custVIDs, prodIDs, prodVIDs, orderIDs, knows, bought []string
	for i := 1; i <= len(ds.Customers); i++ {
		custIDs = append(custIDs, fmt.Sprint(i))
		custVIDs = append(custVIDs, datagen.CustomerVID(i))
	}
	for i := 1; i <= len(ds.Products); i++ {
		prodIDs = append(prodIDs, datagen.ProductID(i))
		prodVIDs = append(prodVIDs, datagen.ProductVID(datagen.ProductID(i)))
	}
	for i := 1; i <= len(ds.Orders); i++ {
		orderIDs = append(orderIDs, datagen.OrderID(i))
	}
	for _, e := range ds.KnowsEdges {
		knows = append(knows, e.ID)
	}
	for _, e := range ds.PurchaseEdges {
		bought = append(bought, e.ID)
	}
	doc := func(coll string) func(*DB, string) bool {
		return func(d *DB, id string) bool { _, ok := d.Docs.Collection(coll).Get(nil, id); return ok }
	}
	vertex := func(d *DB, id string) bool { _, ok := d.Graph.GetVertex(nil, graph.VID(id)); return ok }
	edge := func(d *DB, id string) bool { _, ok := d.Graph.GetEdge(nil, graph.EID(id)); return ok }
	return []loadLoop{
		{"customers", custIDs, func(d *DB, id string) bool {
			t, ok := d.Relational.Table("customer")
			if !ok {
				return false
			}
			var n int
			fmt.Sscan(id, &n)
			_, ok = t.Get(nil, n)
			return ok
		}},
		{"products", prodIDs, doc("products")},
		{"orders", orderIDs, doc("orders")},
		{"feedback", ds.FeedbackKeys, func(d *DB, k string) bool { _, ok := d.KV.Get(nil, k); return ok }},
		{"invoices", orderIDs, func(d *DB, id string) bool { _, ok := d.XML.Get(nil, id); return ok }},
		{"customer vertices", custVIDs, vertex},
		{"product vertices", prodVIDs, vertex},
		{"knows edges", knows, edge},
		{"purchase edges", bought, edge},
	}
}

// batches is the number of Bulk transactions n records take.
func batches(n int) int { return (n + txn.BulkBatch - 1) / txn.BulkBatch }

// loadDDLCommits is what Load commits besides its records: CREATE TABLE
// customer and the three standard indexes, one commit each.
const loadDDLCommits = 4

// TestDurableLoadCommitCount pins the bulk-load commit count: a logged
// load makes one log append per BulkBatch records of each loop, plus its
// DDL, and not one per record.
func TestDurableLoadCommitCount(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	d, err := Open("db", Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := ds.Load(d.Stores()); err != nil {
		t.Fatal(err)
	}
	want, records := loadDDLCommits, 0
	for _, l := range loadLoops(ds) {
		want += batches(len(l.keys))
		records += len(l.keys)
	}
	got := d.DurabilityStats().Appends
	if got != uint64(want) {
		t.Fatalf("load made %d log appends for %d records, want %d", got, records, want)
	}
	if records < 10*want {
		t.Fatalf("dataset too small to tell batches from records: %d records, %d appends", records, want)
	}
}

// TestDurableLoadCrashKeepsWholeBatches kills the log at every fsync of
// a load in turn, drops the unsynced tail and recovers: what comes back
// must be a prefix of the load's commit sequence, so every loop holds
// nothing, all of its records, or its first whole batches — and no loop
// after a partial one holds anything.
func TestDurableLoadCrashKeepsWholeBatches(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 11})
	loops := loadLoops(ds)
	betweenBatches := false // some crash kept a loop's first batches only
	for k := 1; ; k++ {
		mem := wal.NewMemFS()
		ffs := wal.NewFailFS(mem)
		d, err := Open("db", Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		ffs.CrashAtSync(k)
		loadErr := ds.Load(d.Stores())
		d.Close()
		if loadErr == nil {
			break // k is past the load's last fsync: the sweep is complete
		}
		mem.Crash(rand.New(rand.NewSource(int64(k))))

		r, err := Open("db", Options{FS: mem})
		if err != nil {
			t.Fatalf("crash at fsync %d: recovery: %v", k, err)
		}
		partial := ""
		for _, l := range loops {
			n := 0
			for n < len(l.keys) && l.present(r, l.keys[n]) {
				n++
			}
			for _, key := range l.keys[n:] {
				if l.present(r, key) {
					t.Fatalf("crash at fsync %d: %s: %s recovered after the first missing record %s", k, l.name, key, l.keys[n])
				}
			}
			switch {
			case partial != "" && n > 0:
				t.Fatalf("crash at fsync %d: %s: %d records recovered after %s stopped short", k, l.name, n, partial)
			case n%txn.BulkBatch != 0 && n != len(l.keys):
				t.Fatalf("crash at fsync %d: %s: %d of %d records recovered, not whole batches of %d", k, l.name, n, len(l.keys), txn.BulkBatch)
			case n < len(l.keys):
				partial = l.name
				betweenBatches = betweenBatches || n > 0
			}
		}
		r.Close()
		if partial == "" {
			t.Fatalf("crash at fsync %d lost no record of the load", k)
		}
	}
	if !betweenBatches {
		t.Fatal("no crash landed between two batches of one loop: the dataset has no multi-batch loop")
	}
}

// TestDurableLoadIsDeterministic loads one dataset twice: the two logs
// must be byte-identical, which needs a fixed order in every loop.
func TestDurableLoadIsDeterministic(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 5})
	logOf := func() []byte {
		mem := wal.NewMemFS()
		d, err := Open("db", Options{FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Load(d.Stores()); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := mem.ReadFile("db/" + LogName)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := logOf(), logOf()
	if !bytes.Equal(a, b) {
		t.Fatalf("two loads of one dataset wrote different logs (%d vs %d bytes)", len(a), len(b))
	}
}

// BenchmarkDurableLoad loads SF 0.1 through the log on MemFS (no device
// barrier), reporting log appends per load as commits/op.
func BenchmarkDurableLoad(b *testing.B) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.1, Seed: 1})
	b.ReportAllocs()
	var commits uint64
	for i := 0; i < b.N; i++ {
		d, err := Open("db", Options{FS: wal.NewMemFS()})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Load(d.Stores()); err != nil {
			b.Fatal(err)
		}
		commits += d.DurabilityStats().Appends
		d.Close()
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
}
