package txn_test

import (
	"fmt"
	"runtime"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
	"udbench/internal/workload"
)

// TestLongRunStaysBounded runs the standard mix in process on udbms at
// SF 1 with 2 clients, 4 windows of 50 000 ops. Writes trim their
// chains and releases forget their lock entries, so the heap after GC
// grows by what the mix inserts (an order in 15 % of ops, about
// 0.5 KB per op) and not by the versions it leaves behind, and the
// lock table is empty between windows. Each window logs its throughput
// and order count: trimming bounds the heap, not the data set, so a
// window over more orders is slower for that reason alone.
func TestLongRunStaysBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap and throughput figures are the race detector's under -race")
	}
	const (
		windows      = 4
		clients      = 2
		opsPerClient = 25000
		maxKBPerOp   = 0.6
	)
	ds := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 77})
	db := udbms.Open()
	if err := ds.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	e := workload.NewUDBMSEngine(db)
	info := workload.InfoOf(ds)
	ds = nil
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	orders := db.Docs.Collection("orders")
	start, ops := heap(), int64(0)
	for w := 1; w <= windows; w++ {
		res := workload.RunMix(e, info, workload.StandardMix(e), workload.DriverConfig{
			Clients: clients, OpsPerClient: opsPerClient, Theta: 0.5, Seed: uint64(76 + w),
		})
		ops += res.Ops
		entries := db.Manager().LockEntries()
		t.Logf("window %d: %d ops at %.0f ops/s, %d orders, heap %.1f MB, %d lock entries",
			w, res.Ops, res.Throughput, orders.Len(), float64(heap())/(1<<20), entries)
		if entries != 0 {
			t.Errorf("window %d left %d lock entries with no transaction open, want 0", w, entries)
		}
	}
	end := heap()
	runtime.KeepAlive(db)
	perOp := (float64(end) - float64(start)) / float64(ops) / 1024
	t.Logf("heap after GC grew from %.1f to %.1f MB, %.2f KB per op over %d ops",
		float64(start)/(1<<20), float64(end)/(1<<20), perOp, ops)
	if perOp > maxKBPerOp {
		t.Errorf("heap after GC grew %.2f KB per op, want at most %.1f", perOp, maxKBPerOp)
	}
}

// TestProbedLockEntriesForgotten: an Update of a key that does not
// exist locks the missing key's name, so that the absence serializes
// with a concurrent insert. Each such lock's entry is forgotten when it
// is released, so a storm of misses leaves the lock table empty, and
// the store still serves hits, misses and writes.
func TestProbedLockEntriesForgotten(t *testing.T) {
	db := udbms.Open()
	coll := db.Docs.Collection("sparse")
	if err := coll.Insert(nil, mmvalue.ObjectOf("_id", "1")); err != nil {
		t.Fatal(err)
	}
	same := func(doc mmvalue.Value) (mmvalue.Value, error) { return doc, nil }
	for i := 0; i < 2000; i++ {
		if err := coll.Update(nil, fmt.Sprint(1000000+i), same); err == nil {
			t.Fatal("Update of a missing key succeeded")
		}
		if n := db.Manager().LockEntries(); n != 0 {
			t.Fatalf("miss %d left %d lock entries, want 0", i, n)
		}
	}
	if _, ok := coll.Get(nil, "1"); !ok {
		t.Fatal("document 1 missing after the misses")
	}
	if err := coll.Update(nil, "424242", same); err == nil {
		t.Fatal("Update miss after the storm succeeded")
	}
	if err := coll.Insert(nil, mmvalue.ObjectOf("_id", "2")); err != nil {
		t.Fatal(err)
	}
}
