package core

import (
	"fmt"
	"time"

	"udbench/internal/consistency"
	"udbench/internal/convert"
	"udbench/internal/datagen"
	"udbench/internal/metrics"
	"udbench/internal/mmschema"
	"udbench/internal/mmvalue"
	"udbench/internal/udbms"
	"udbench/internal/workload"
	"udbench/internal/xmlstore"
)

// runA1 is the index ablation DESIGN.md calls out: the same queries on
// the same data with and without the benchmark's standard secondary
// indexes (customer.city, orders.customer_id, products.category).
func runA1(cfg Config) ([]*metrics.Table, error) {
	sfs := []float64{cfg.SF, cfg.SF * 2}
	reps := 5
	if cfg.Quick {
		sfs = []float64{0.02, 0.05}
		reps = 3
	}
	probes := []workload.QueryID{workload.Q1, workload.Q4}
	t := metrics.NewTable("A1: query latency with vs without secondary indexes",
		"SF", "query", "indexed", "no index", "slowdown")
	for _, sf := range sfs {
		ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: cfg.Seed})
		info := workload.InfoOf(ds)
		var engines [2]*workload.UDBMSEngine
		for i, withIdx := range []bool{true, false} {
			db := udbms.Open()
			if err := ds.LoadWithOptions(db.Stores(), withIdx); err != nil {
				return nil, err
			}
			engines[i] = workload.NewUDBMSEngine(db)
		}
		gen := workload.NewParamGen(info, cfg.Seed, 0)
		p := gen.Next()
		for _, q := range probes {
			var lats [2]time.Duration
			for i, e := range engines {
				lat, err := medianOf(reps, func() error {
					_, err := e.RunQuery(q, p)
					return err
				})
				if err != nil {
					return nil, err
				}
				lats[i] = lat
			}
			t.AddRow(sf, q.String(), lats[0], lats[1], ratio(lats[0], lats[1]))
		}
	}
	return []*metrics.Table{t}, nil
}

// runF1 regenerates the Figure-1 dataset at several scale factors and
// reports per-model cardinalities plus generation/load cost — the
// paper's "creation of a large number of multi-model data ... with
// little manual effort".
func runF1(cfg Config) ([]*metrics.Table, error) {
	sfs := []float64{0.1, 0.5, 1}
	if cfg.Quick {
		sfs = []float64{0.02, 0.05}
	}
	t := metrics.NewTable("F1: dataset statistics per scale factor",
		"SF", "customers", "products", "orders", "feedback", "invoices",
		"vertices", "edges", "gen", "load")
	for _, sf := range sfs {
		t0 := time.Now()
		ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: cfg.Seed})
		genTime := time.Since(t0)
		db := udbms.Open()
		t1 := time.Now()
		if err := ds.Load(db.Stores()); err != nil {
			return nil, err
		}
		loadTime := time.Since(t1)
		st := db.Stats()
		t.AddRow(sf, st.Tables["customer"], st.Collections["products"], st.Collections["orders"],
			st.KVPairs, st.XMLDocs, st.Vertices, st.Edges, genTime, loadTime)
	}
	return []*metrics.Table{t}, nil
}

// runT2 measures the latency of each benchmark query on the unified
// engine vs the federation and verifies both return identical result
// counts.
func runT2(cfg Config) ([]*metrics.Table, error) {
	tb, err := newTestbed(cfg.SF, cfg.Seed, cfg.HopLatency)
	if err != nil {
		return nil, err
	}
	reps := 5
	if cfg.Quick {
		reps = 3
	}
	gen := workload.NewParamGen(tb.info, cfg.Seed, 0)
	p := gen.Next()
	t := metrics.NewTable(
		fmt.Sprintf("T2: query latency, SF %g, hop %v", cfg.SF, cfg.HopLatency),
		"query", "models", "rows", "udbms", "federation", "speedup")
	for _, q := range workload.AllQueries {
		var uCount, fCount int
		uLat, err := medianOf(reps, func() error {
			n, err := tb.uni.RunQuery(q, p)
			uCount = n
			return err
		})
		if err != nil {
			return nil, err
		}
		fLat, err := medianOf(reps, func() error {
			n, err := tb.fed.RunQuery(q, p)
			fCount = n
			return err
		})
		if err != nil {
			return nil, err
		}
		if uCount != fCount {
			return nil, fmt.Errorf("t2: %s result mismatch: udbms=%d federation=%d", q, uCount, fCount)
		}
		t.AddRow(q.String(), q.Models(), uCount, uLat, fLat, ratio(uLat, fLat))
	}
	return []*metrics.Table{t}, nil
}

// runF2 sweeps client counts over the standard mixed workload.
func runF2(cfg Config) ([]*metrics.Table, error) {
	tb, err := newTestbed(cfg.SF, cfg.Seed, cfg.HopLatency)
	if err != nil {
		return nil, err
	}
	clients := []int{1, 2, 4, 8, 16}
	ops := 200
	if cfg.Quick {
		clients = []int{1, 2, 4}
		ops = 40
	}
	t := metrics.NewTable(
		fmt.Sprintf("F2: throughput vs clients, SF %g", cfg.SF),
		"clients", "udbms ops/s", "udbms p99", "federation ops/s", "federation p99")
	for _, c := range clients {
		dc := workload.DriverConfig{Clients: c, OpsPerClient: max(ops/c, 5), Theta: 0.5, Seed: cfg.Seed}
		ru := workload.RunMix(tb.uni, tb.info, workload.StandardMix(tb.uni), dc)
		rf := workload.RunMix(tb.fed, tb.info, workload.StandardMix(tb.fed), dc)
		t.AddRow(c, ru.Throughput, ru.Latency.Percentile(99), rf.Throughput, rf.Latency.Percentile(99))
	}
	return []*metrics.Table{t}, nil
}

// runF3 sweeps Zipf contention over single-attempt T1 transactions.
func runF3(cfg Config) ([]*metrics.Table, error) {
	thetas := []float64{0, 0.5, 0.9, 1.2}
	clients, ops := 8, 50
	if cfg.Quick {
		thetas = []float64{0, 0.9}
		clients, ops = 4, 20
	}
	t := metrics.NewTable(
		fmt.Sprintf("F3: abort rate vs contention (stock transfers, %d clients), SF %g", clients, cfg.SF),
		"theta", "udbms aborts", "udbms ops/s", "federation aborts", "federation ops/s")
	for _, theta := range thetas {
		// Fresh stores per cell so stock decrements don't accumulate.
		tb, err := newTestbed(cfg.SF, cfg.Seed, cfg.HopLatency)
		if err != nil {
			return nil, err
		}
		dc := workload.DriverConfig{Clients: clients, OpsPerClient: ops, Theta: theta, Seed: cfg.Seed}
		ru := workload.RunContention(tb.uni, tb.info, dc)
		rf := workload.RunContention(tb.fed, tb.info, dc)
		t.AddRow(theta,
			fmt.Sprintf("%.1f%%", ru.AbortRate*100), ru.Throughput,
			fmt.Sprintf("%.1f%%", rf.AbortRate*100), rf.Throughput)
	}
	return []*metrics.Table{t}, nil
}

// runT3 reports consistency metrics across replication lags, in both
// strong (primary reads) and eventual (replica reads) modes, plus the
// cross-model torn-read probe on both engines.
func runT3(cfg Config) ([]*metrics.Table, error) {
	lags := []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	ops := 200
	if cfg.Quick {
		lags = []time.Duration{0, 50 * time.Millisecond}
		ops = 60
	}
	t := metrics.NewTable("T3a: replica consistency metrics vs lag",
		"lag", "mode", "RYW viol", "monotonic viol", "stale mean (ver)",
		"stale mean (time)", "fresh %", "convergence")
	for _, lag := range lags {
		for _, primary := range []bool{true, false} {
			mode := "eventual"
			if primary {
				mode = "strong"
			}
			res := consistency.RunProbe(consistency.ProbeConfig{
				Clients: 4, Keys: 16, OpsPerClient: ops, Replicas: 2,
				Lag: lag, OpGap: time.Millisecond, ReadFromPrimary: primary, Seed: cfg.Seed,
			})
			r := res.Report
			fresh := 0.0
			if r.Reads > 0 {
				fresh = float64(r.FreshReads) / float64(r.Reads) * 100
			}
			t.AddRow(lag, mode, r.RYWViolations, r.MonotonicViolations,
				r.VersionStalenessMean, r.TimeStalenessMean,
				fmt.Sprintf("%.1f%%", fresh), res.Convergence)
		}
	}

	// Cross-model atomicity under concurrency: torn-read probe. The
	// federation gets a visible per-hop latency so the window between
	// its per-store commits (where readers can observe a torn state)
	// is wide enough to measure; the unified engine's single commit
	// point has no such window at any latency.
	tb, err := newTestbed(cfg.SF, cfg.Seed, time.Millisecond)
	if err != nil {
		return nil, err
	}
	probeCfg := workload.DriverConfig{Clients: 6, OpsPerClient: 50, Theta: 1.2, Seed: cfg.Seed}
	if cfg.Quick {
		probeCfg.OpsPerClient = 15
	}
	t2 := metrics.NewTable("T3b: cross-model torn reads (T1 writers vs T4 readers)",
		"engine", "reads", "torn", "torn %")
	for _, e := range []workload.Engine{tb.uni, tb.fed} {
		res := workload.RunTornReadProbe(e, tb.info, probeCfg)
		pct := 0.0
		if res.Reads > 0 {
			pct = float64(res.Torn) / float64(res.Reads) * 100
		}
		t2.AddRow(res.Engine, res.Reads, res.Torn, fmt.Sprintf("%.2f%%", pct))
	}
	return []*metrics.Table{t, t2}, nil
}

// runT4 sweeps evolution chain length and reports the fraction of
// historical queries that stay valid, with and without query
// rewriting, plus auto-migration throughput.
func runT4(cfg Config) ([]*metrics.Table, error) {
	sf := cfg.SF
	if cfg.Quick {
		sf = 0.02
	}
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: cfg.Seed})
	base := mmschema.Infer(ds.Orders)
	chain := mmschema.StandardEvolutionChain()
	queries := mmschema.StandardQuerySet()
	t := metrics.NewTable(
		fmt.Sprintf("T4: historical query validity vs evolution chain length (%d queries)", len(queries)),
		"k ops", "valid", "valid+rewrite", "migrate docs/s", "last op")
	for k := 0; k <= len(chain); k++ {
		evolved, err := mmschema.Chain(base, chain[:k]...)
		if err != nil {
			return nil, err
		}
		plain := mmschema.CheckAll(queries, evolved)
		// Rewriting mode: translate each query through the op chain.
		validRewritten := 0
		for _, q := range queries {
			if rw, ok := mmschema.RewriteForOps(q, chain[:k]); ok {
				if mmschema.CheckCompat(rw, evolved).Valid {
					validRewritten++
				}
			}
		}
		// Migration cost.
		t0 := time.Now()
		migrated := mmschema.MigrateAll(ds.Orders, chain[:k]...)
		dur := time.Since(t0)
		rate := metrics.Throughput(int64(len(migrated)), dur)
		lastOp := "-"
		if k > 0 {
			lastOp = chain[k-1].String()
		}
		t.AddRow(k,
			fmt.Sprintf("%d/%d", plain.Valid, plain.Total),
			fmt.Sprintf("%d/%d", validRewritten, len(queries)),
			rate, lastOp)
	}
	return []*metrics.Table{t}, nil
}

// runT5 measures every conversion pair's round-trip fidelity (against
// the generator's gold standard) and throughput.
func runT5(cfg Config) ([]*metrics.Table, error) {
	sf := cfg.SF
	if cfg.Quick {
		sf = 0.02
	}
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: cfg.Seed})
	t := metrics.NewTable(
		fmt.Sprintf("T5: conversion round trips, SF %g", sf),
		"conversion", "records", "fidelity", "records/s", "notes")

	// JSON documents -> relational (shred) -> JSON (nest).
	for _, coll := range []struct {
		name string
		docs []mmvalue.Value
	}{{"orders", ds.Orders}, {"products", ds.Products}} {
		t0 := time.Now()
		sr, err := convert.ShredDocs(coll.name, coll.docs)
		if err != nil {
			return nil, err
		}
		back, err := convert.NestShredded(sr)
		if err != nil {
			return nil, err
		}
		t.AddRow("doc->rel->doc ("+coll.name+")", len(coll.docs),
			convert.Fidelity(coll.docs, back),
			metrics.Throughput(int64(len(coll.docs)), time.Since(t0)),
			fmt.Sprintf("%d child tables, %d JSON cols", len(sr.Children), len(sr.Notes)))
	}

	// Relational -> documents -> relational.
	t0 := time.Now()
	docs := convert.RowsToDocs(ds.Customers, "id")
	rows := convert.DocsToRows(docs, "id")
	dur := time.Since(t0)
	t.AddRow("rel->doc->rel (customers)", len(ds.Customers),
		convert.Fidelity(ds.Customers, rows),
		metrics.Throughput(int64(len(ds.Customers)), dur), "")

	// XML -> JSON -> XML over the invoice corpus.
	t0 = time.Now()
	exact, total := 0, 0
	for _, inv := range ds.Invoices {
		total++
		doc := convert.XMLToDoc(inv)
		b, err := convert.DocToXML(doc)
		if err != nil {
			return nil, err
		}
		if xmlstore.Equal(inv, b) {
			exact++
		}
	}
	dur = time.Since(t0)
	t.AddRow("xml->doc->xml (invoices)", total,
		float64(exact)/float64(total),
		metrics.Throughput(int64(total), dur),
		"ordering of distinct siblings preserved")

	// Relational -> graph -> relational.
	t0 = time.Now()
	gs := convert.RowsToGraphSpec(ds.Customers, "id", "customer:", "customer", nil)
	backRows := convert.GraphSpecToRows(gs, "customer")
	dur = time.Since(t0)
	t.AddRow("rel->graph->rel (customers)", len(ds.Customers),
		convert.Fidelity(ds.Customers, backRows),
		metrics.Throughput(int64(len(ds.Customers)), dur),
		fmt.Sprintf("%d vertices", len(gs.Vertices)))

	// KV -> relational -> KV.
	var pairs []convert.KVPair
	for _, k := range ds.FeedbackKeys {
		pairs = append(pairs, convert.KVPair{Key: k, Value: ds.Feedback[k]})
	}
	t0 = time.Now()
	kvRows, err := convert.KVToRows(pairs)
	if err != nil {
		return nil, err
	}
	backPairs, err := convert.RowsToKV(kvRows)
	if err != nil {
		return nil, err
	}
	dur = time.Since(t0)
	match := 0
	for i := range pairs {
		if backPairs[i].Key == pairs[i].Key && mmvalue.Equal(backPairs[i].Value, pairs[i].Value) {
			match++
		}
	}
	t.AddRow("kv->rel->kv (feedback)", len(pairs),
		float64(match)/float64(max(1, len(pairs))),
		metrics.Throughput(int64(len(pairs)), dur), "")
	return []*metrics.Table{t}, nil
}

// runF4 sweeps scale factors and reports representative query
// latencies on the unified engine.
func runF4(cfg Config) ([]*metrics.Table, error) {
	sfs := []float64{0.05, 0.1, 0.2, 0.4}
	reps := 3
	if cfg.Quick {
		sfs = []float64{0.02, 0.05}
		reps = 2
	}
	probes := []workload.QueryID{workload.Q1, workload.Q4, workload.Q10, workload.Q11, workload.Q12, workload.Q13}
	headers := []string{"SF", "customers", "orders"}
	for _, q := range probes {
		headers = append(headers, q.String())
	}
	t := metrics.NewTable("F4: unified-engine query latency vs scale factor", headers...)
	for _, sf := range sfs {
		tb, err := newTestbed(sf, cfg.Seed, 0)
		if err != nil {
			return nil, err
		}
		gen := workload.NewParamGen(tb.info, cfg.Seed, 0)
		p := gen.Next()
		row := []any{sf, tb.info.Customers, tb.info.Orders}
		for _, q := range probes {
			lat, err := medianOf(reps, func() error {
				_, err := tb.uni.RunQuery(q, p)
				return err
			})
			if err != nil {
				return nil, err
			}
			row = append(row, lat)
		}
		t.AddRow(row...)
	}
	return []*metrics.Table{t}, nil
}
