package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/ordmap"
	"udbench/internal/server"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/wal"
	"udbench/internal/workload"
	"udbench/internal/xmlstore"
)

// Layer probes: one small fixed piece of work per layer, timed alone, so
// that a layer's unit cost is known apart from the mix it runs inside.
// scale shrinks every iteration count (the smoke test runs at 0.02).

// perOp times n calls of fn together and returns ns per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianOf times n calls of fn one by one and returns the median in ns.
func medianOf(n int, fn func(i int)) float64 {
	d := make([]int64, n)
	for i := range d {
		start := time.Now()
		fn(i)
		d[i] = time.Since(start).Nanoseconds()
	}
	slices.Sort(d)
	return float64(percentile(d, 50))
}

// stubBackend answers every request at once: what remains of a round
// trip to it is the server and the wire.
type stubBackend struct{}

func (stubBackend) Name() string                        { return "stub" }
func (stubBackend) Capabilities() workload.Capabilities { return workload.Capabilities{} }
func (stubBackend) RunQuery(workload.QueryID, workload.Params) (int, error) {
	return 1, nil
}
func (stubBackend) RunSuiteOp(string, string, workload.Params) (int, error) { return 1, nil }

func runProbes(seed uint64, sf, scale float64, outDir string) (map[string]float64, error) {
	iters := func(base int) int { return max(20, int(float64(base)*scale)) }
	out := map[string]float64{}
	noop := []workload.MixItem{{Name: "Q1", Weight: 1, Run: func(workload.Params) error { return nil }}}

	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
	db := udbms.Open()
	if err := ds.Load(datagen.Target{Relational: db.Relational, Docs: db.Docs, Graph: db.Graph, KV: db.KV, XML: db.XML}); err != nil {
		return nil, fmt.Errorf("probe store: %w", err)
	}
	info := workload.InfoOf(ds)

	// workload: what the driver itself costs per op, what this
	// benchmark's span recorder adds to one, and how late the driver's
	// open loop runs.
	n := iters(200000)
	closed := workload.DriverConfig{Clients: clients, OpsPerClient: n, Theta: theta, Seed: seed}
	bare := workload.RunMix(nil, info, noop, closed)
	out["workload.dispatch_ns"] = float64(bare.Elapsed.Nanoseconds()) / float64(n)
	rec := newRecorder(n)
	record := rec.wrapMix(noop)[0].Run
	out["bench.recorder_ns"] = perOp(n, func(int) { _ = record(workload.Params{}) })
	open := workload.RunMix(nil, info, noop, workload.DriverConfig{
		Clients: clients, OpsPerClient: iters(1000), Theta: theta, Seed: seed,
		Mode: workload.ModeOpen, RateOpsPerSec: 1000, Arrival: workload.ArrivalPoisson,
	})
	out["workload.late_p50_us"] = float64(open.Intended.Percentile(50).Nanoseconds()) / 1e3
	out["workload.late_p99_us"] = float64(open.Intended.Percentile(99).Nanoseconds()) / 1e3
	out["workload.achieved_frac"] = open.Rate.Achievement()

	// server: a round trip to a backend that does nothing.
	srv, err := server.Listen("127.0.0.1:0", server.Config{Engine: stubBackend{}, Workers: clients})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := server.Dial(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var rttErr error
	out["server.rtt_us"] = medianOf(iters(5000), func(int) {
		if _, err := cl.Query(workload.Q1, workload.Params{}); err != nil {
			rttErr = err
		}
	}) / 1e3
	if rttErr != nil {
		return nil, fmt.Errorf("server.rtt probe: %w", rttErr)
	}

	// txn: an empty transaction, and an uncontended exclusive lock.
	mgr := txn.NewManager()
	out["txn.begin_commit_ns"] = perOp(iters(100000), func(int) { _, _ = mgr.Begin().Commit() })
	keys := make([]txn.ResourceKey, iters(20000))
	for i := range keys {
		keys[i] = txn.NewResourceKey(fmt.Sprintf("probe/%06d", i))
	}
	locker := mgr.Begin()
	out["txn.xlock_ns"] = perOp(len(keys), func(i int) { _ = locker.LockExclusiveKey(keys[i]) })
	locker.Abort()

	// udbms: Q1 right after a committed T2 (the join-build cache is
	// stale) against Q1 repeated (it hits).
	eng := workload.NewUDBMSEngine(db)
	gen := workload.NewParamGen(info, seed, theta)
	var q1Err error
	q1 := func(p workload.Params) {
		if _, err := eng.RunQuery(workload.Q1, p); err != nil {
			q1Err = err
		}
	}
	cold := make([]int64, iters(100))
	for i := range cold {
		p := gen.Next()
		p.FreshID = gen.NewOrderID(0, 0, i)
		if err := eng.NewOrder(p); err != nil {
			return nil, fmt.Errorf("q1 cold probe: %w", err)
		}
		start := time.Now()
		q1(p)
		cold[i] = time.Since(start).Nanoseconds()
	}
	slices.Sort(cold)
	out["udbms.q1_cold_us"] = float64(percentile(cold, 50)) / 1e3
	warmParams := gen.Next()
	out["udbms.q1_warm_us"] = medianOf(iters(2000), func(int) { q1(warmParams) }) / 1e3
	if q1Err != nil {
		return nil, fmt.Errorf("q1 probe: %w", q1Err)
	}

	// The five stores, through one transaction each: point reads of
	// loaded records, inserts of new ones, and one full scan.
	storeN := min(iters(2000), len(ds.Customers), len(ds.Products), len(ds.FeedbackKeys))
	var putErr error
	keep := func(err error) {
		if err != nil {
			putErr = err
		}
	}
	scan := func(fn func(visit func())) float64 {
		rows := 0
		start := time.Now()
		fn(func() { rows++ })
		return float64(time.Since(start).Nanoseconds()) / float64(max(rows, 1))
	}
	tx := db.Begin()
	cust, _ := db.Relational.Table("customer")
	out["relational.get_ns"] = perOp(storeN, func(i int) { cust.Get(tx, i+1) })
	out["relational.put_ns"] = perOp(storeN, func(i int) {
		keep(cust.Insert(tx, mmvalue.ObjectOf("id", 1000000+i, "name", "probe", "age", 30, "city", "Oulu", "country", "FI", "vip", false)))
	})
	out["relational.scan_ns_per_row"] = scan(func(visit func()) {
		cust.Stream(tx, nil, func(mmvalue.Value) bool { visit(); return true })
	})
	orders := db.Docs.Collection("orders")
	out["document.get_ns"] = perOp(storeN, func(i int) { orders.Get(tx, datagen.OrderID(i+1)) })
	out["document.put_ns"] = perOp(storeN, func(i int) {
		keep(orders.Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("probe-%06d", i), "customer_id", 1, "status", "open", "total", 19.99)))
	})
	out["document.scan_ns_per_row"] = scan(func(visit func()) {
		orders.Stream(tx, nil, func(mmvalue.Value) bool { visit(); return true })
	})
	out["kv.get_ns"] = perOp(storeN, func(i int) { db.KV.Get(tx, ds.FeedbackKeys[i]) })
	out["kv.put_ns"] = perOp(storeN, func(i int) {
		keep(db.KV.Put(tx, fmt.Sprintf("probe/%06d", i), mmvalue.ObjectOf("rating", 3, "text", "probe")))
	})
	out["kv.scan_ns_per_row"] = scan(func(visit func()) {
		db.KV.Scan(tx, "", "", func(string, mmvalue.Value) bool { visit(); return true })
	})
	out["graph.get_ns"] = perOp(storeN, func(i int) { db.Graph.GetVertex(tx, graph.VID(datagen.CustomerVID(i+1))) })
	out["graph.put_ns"] = perOp(storeN, func(i int) {
		keep(db.Graph.AddVertex(tx, graph.VID(fmt.Sprintf("probe%06d", i)), "probe", mmvalue.ObjectOf("id", i)))
	})
	out["graph.scan_ns_per_row"] = scan(func(visit func()) {
		db.Graph.Vertices(tx, func(graph.Vertex) bool { visit(); return true })
	})
	invoice := ds.Invoices[datagen.OrderID(1)]
	out["xmlstore.get_ns"] = perOp(storeN, func(i int) { db.XML.Get(tx, datagen.OrderID(i+1)) })
	out["xmlstore.put_ns"] = perOp(storeN, func(i int) { keep(db.XML.Put(tx, fmt.Sprintf("probe-%06d", i), invoice)) })
	out["xmlstore.scan_ns_per_row"] = scan(func(visit func()) {
		db.XML.Scan(tx, func(string, *xmlstore.Node) bool { visit(); return true })
	})
	tx.Abort()
	if putErr != nil {
		return nil, fmt.Errorf("store put probe: %w", putErr)
	}

	// ordmap and mmvalue, which every store is built on.
	m := ordmap.New[int](int64(seed))
	mapKeys := make([]string, iters(20000))
	for i := range mapKeys {
		mapKeys[i] = datagen.OrderID(i * 7919 % len(mapKeys))
	}
	out["ordmap.put_ns"] = perOp(len(mapKeys), func(i int) { m.GetOrInsert(mapKeys[i], func() int { return i }) })
	out["ordmap.get_ns"] = perOp(len(mapKeys), func(i int) { m.Get(mapKeys[i]) })
	doc := ds.Orders[0]
	var buf []byte
	out["mmvalue.encode_ns"] = perOp(iters(100000), func(int) { buf = mmvalue.AppendBinary(buf[:0], doc) })
	out["mmvalue.encoded_bytes"] = float64(len(buf))
	var decErr error
	out["mmvalue.decode_ns"] = perOp(iters(100000), func(int) {
		if _, _, err := mmvalue.DecodeBinary(buf); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("mmvalue probe: %w", decErr)
	}

	// wal: one commit record appended and made durable, single thread,
	// group policy, on the real file system.
	dir, err := os.MkdirTemp(outDir, "walprobe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.OpenLog(dir+"/probe.log", wal.Options{Policy: wal.SyncGroup})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	ops := [][]byte{buf}
	var walErr error
	out["wal.append_commit_us"] = medianOf(iters(1500), func(i int) {
		ts := uint64(i + 1)
		if err := log.Append(ts, ops); err != nil {
			walErr = err
		}
		if err := log.Commit(ts); err != nil {
			walErr = err
		}
	}) / 1e3
	if walErr != nil {
		return nil, fmt.Errorf("wal probe: %w", walErr)
	}
	return out, nil
}
