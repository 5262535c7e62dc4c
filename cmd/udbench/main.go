// Command udbench runs the UDBMS multi-model database benchmark: the
// experiments (run, list), the workload driver (mix, serve, ping) and
// the dataset generator (generate).
// `udbench help` prints every command and flag; usage() below is the
// one place they are documented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"udbench/internal/core"
	"udbench/internal/datagen"
	"udbench/internal/durable"
	"udbench/internal/metrics"
	"udbench/internal/server"
	"udbench/internal/udbms"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "mix":
		err = cmdMix(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "ping":
		err = cmdPing(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "udbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "udbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `udbench — UDBMS multi-model database benchmark

commands:
  list                         list experiments
  run <id>|all [flags]         run experiments (ids from 'list')
  generate [flags]             generate the dataset and print stats
  mix [flags]                  drive the standard OLTP mix on both engines
  serve [flags]                serve an engine over the network protocol
  ping -addr A                 probe a running server (readiness checks)

run/generate flags:
  -sf F      scale factor (default 0.2)
  -seed N    generator seed (default 42)
  -quick     shrink sweeps for a fast run
  -hop D     federation per-request latency (default 100us)
  -csv       emit CSV instead of aligned tables
  -json F    also write results to F as JSON
  -remote A  also sweep a running 'udbench serve' at address A where
             the experiment supports it (f5: in-process vs remote knee)

mix flags (plus -sf/-seed/-hop/-json):
  -clients N   number of driver workers (default 4)
  -ops N       operations per client (default 200)
  -theta T     Zipf parameter skew (default 0.5)
  -mode M      load model: closed (default) or open
  -rate R      open-loop target arrival rate in ops/s (default 1000)
  -arrival A   open-loop arrival process: poisson (default) or fixed
  -duration D  open-loop time bound, e.g. 30s (replaces -ops; arrivals
               generate lazily and the backlog drains under a deadline)
  -wal DIR     attach a write-ahead log (group-commit WAL + recovery)
               to the unified engine, rooted at DIR; an existing log is
               recovered instead of re-loading the dataset
  -fsync P     fsync policy with -wal: always, group (default), async
  -remote A    drive a running 'udbench serve' at address A instead of
               in-process engines (admission telemetry lands in the
               report; the server's -deadline sheds late requests)
  -engine E    comparative mode: drive one backend (udbms, federation or
               relational) instead of both native engines; partial backends
               run the mix subset their capabilities allow and attach a
               backend_capabilities block to the JSON report

serve flags (dataset flags as in run):
  -addr A      listen address (default 127.0.0.1:7744)
  -engine E    backend to front: udbms (default), federation or
               relational
  -workers N   executor pool size (default 4)
  -queue N     admission queue depth (default 256)
  -deadline D  queue-wait budget before shedding (default 100ms)
`)
}

func cmdList() error {
	t := metrics.NewTable("Experiments", "id", "pillar", "name")
	for _, e := range core.Experiments() {
		t.AddRow(e.ID, e.Pillar, e.Name)
	}
	fmt.Print(t.String())
	return nil
}

func benchFlags(args []string) (core.Config, []string, bool, string, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	cfg := core.DefaultConfig()
	fs.Float64Var(&cfg.SF, "sf", cfg.SF, "scale factor")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	fs.BoolVar(&cfg.Quick, "quick", cfg.Quick, "quick mode")
	fs.DurationVar(&cfg.HopLatency, "hop", cfg.HopLatency, "federation hop latency")
	csv := fs.Bool("csv", false, "CSV output")
	jsonPath := fs.String("json", "", "write results as JSON to this file")
	fs.StringVar(&cfg.Remote, "remote", "", "also sweep a running 'udbench serve' at this address (f5)")
	// Allow the experiment id before the flags.
	var pos []string
	rest := args
	for len(rest) > 0 && rest[0] != "" && rest[0][0] != '-' {
		pos = append(pos, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return core.Config{}, nil, false, "", err
	}
	return cfg, append(pos, fs.Args()...), *csv, *jsonPath, nil
}

// writeJSON marshals v indented into path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tableJSON is the machine-readable form of one result table.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func writeTablesJSON(path string, tables ...*metrics.Table) error {
	out := make([]tableJSON, 0, len(tables))
	for _, t := range tables {
		out = append(out, tableJSON{Title: t.Title, Headers: t.Headers, Rows: t.Rows()})
	}
	return writeJSON(path, out)
}

func cmdRun(args []string) error {
	cfg, pos, csv, jsonPath, err := benchFlags(args)
	if err != nil {
		return err
	}
	if len(pos) == 0 {
		return fmt.Errorf("run: missing experiment id (see 'udbench list' or use 'all')")
	}
	var tables []*metrics.Table
	for _, id := range pos {
		if id == "all" {
			ts, err := core.RunAll(cfg)
			if err != nil {
				return err
			}
			tables = append(tables, ts...)
			continue
		}
		e, ok := core.ByID(id)
		if !ok {
			return fmt.Errorf("run: unknown experiment %q", id)
		}
		ts, err := e.Run(cfg)
		if err != nil {
			return err
		}
		tables = append(tables, ts...)
	}
	for _, t := range tables {
		if csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	if jsonPath != "" {
		if err := writeTablesJSON(jsonPath, tables...); err != nil {
			return err
		}
		fmt.Printf("wrote %d tables to %s\n", len(tables), jsonPath)
	}
	return nil
}

// cmdMix drives the standard OLTP mix against both engines and emits
// the per-op latency digest — the perf-trajectory probe future PRs
// diff via -json.
func cmdMix(args []string) error {
	fs := flag.NewFlagSet("mix", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.2, "scale factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	hop := fs.Duration("hop", 100*time.Microsecond, "federation hop latency")
	clients := fs.Int("clients", 4, "driver workers")
	ops := fs.Int("ops", 200, "operations per client")
	theta := fs.Float64("theta", 0.5, "Zipf parameter skew")
	mode := fs.String("mode", "closed", "load model: closed or open")
	rate := fs.Float64("rate", 1000, "open-loop target arrival rate (ops/s)")
	arrival := fs.String("arrival", "poisson", "open-loop arrival process: poisson or fixed")
	duration := fs.Duration("duration", 0, "open-loop time bound (e.g. 30s); replaces the -ops count")
	walDir := fs.String("wal", "", "attach a write-ahead log rooted at this directory (unified engine)")
	fsync := fs.String("fsync", "group", "fsync policy with -wal: always, group, or async")
	jsonPath := fs.String("json", "", "write results as JSON to this file")
	remote := fs.String("remote", "", "drive a running 'udbench serve' at this address instead of in-process engines")
	engineName := fs.String("engine", "", "drive one backend (udbms, federation or relational) instead of both native engines (comparative mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote != "" && *walDir != "" {
		return fmt.Errorf("mix: -wal configures an in-process engine and cannot combine with -remote")
	}
	if *engineName != "" {
		if *remote != "" {
			return fmt.Errorf("mix: -engine selects an in-process backend and cannot combine with -remote")
		}
		if *walDir != "" {
			return fmt.Errorf("mix: -wal attaches to the native unified-engine path and cannot combine with -engine")
		}
	}
	driverMode, ok := map[string]workload.DriverMode{"closed": workload.ModeClosed, "open": workload.ModeOpen}[*mode]
	switch {
	case !ok:
		return fmt.Errorf("mix: unknown -mode %q (want closed or open)", *mode)
	case driverMode == workload.ModeClosed && *duration > 0:
		return fmt.Errorf("mix: -duration needs -mode open (the closed loop is count-bounded)")
	case driverMode == workload.ModeOpen && *rate <= 0:
		return fmt.Errorf("mix: -mode open needs a positive -rate, got %g", *rate)
	}
	arrivalProc, ok := map[string]workload.ArrivalProcess{"poisson": workload.ArrivalPoisson, "fixed": workload.ArrivalFixed}[*arrival]
	if !ok {
		return fmt.Errorf("mix: unknown -arrival %q (want poisson or fixed)", *arrival)
	}
	// No arrival process exists in closed-loop mode; the JSON mirrors
	// that with "" the same way rate_ops_per_sec uses 0.
	arrivalName := ""
	if driverMode == workload.ModeOpen {
		arrivalName = arrivalProc.String()
	}
	var engines []workload.Backend
	var info workload.Info
	if *remote != "" {
		re, err := server.DialEngine(*remote, *clients)
		if err != nil {
			return err
		}
		defer re.Close()
		info = re.Info()
		engines = []workload.Backend{re}
		fmt.Printf("remote engine %s at %s (customers %d, products %d, orders %d)\n",
			re.ServerName(), *remote, info.Customers, info.Products, info.Orders)
	} else {
		ds := datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
		info = workload.InfoOf(ds)
		// Every in-process engine comes out of core.NewBackend;
		// comparative mode builds the one named, the default both natives.
		names := []string{"udbms", "federation"}
		if *engineName != "" {
			names = []string{*engineName}
		}
		for _, name := range names {
			var be workload.Backend
			if name == "udbms" && *walDir != "" {
				// The durable path stays explicit: an existing log is
				// recovered instead of re-loading the dataset.
				d, err := openDurable(*walDir, *fsync, ds)
				if err != nil {
					return err
				}
				defer d.Close()
				e := workload.NewUDBMSEngine(d.DB)
				e.Durable = d
				be = e
			} else {
				var err error
				be, err = core.NewBackend(name, ds, *hop)
				if err != nil {
					return fmt.Errorf("mix: %w", err)
				}
			}
			if len(workload.StandardMix(be)) == 0 {
				return fmt.Errorf("mix: backend %s can express no op of the standard mix", be.Name())
			}
			engines = append(engines, be)
		}
	}
	cfg := workload.DriverConfig{
		Clients: *clients, OpsPerClient: *ops, Theta: *theta, Seed: *seed,
		Mode: driverMode, RateOpsPerSec: *rate, Arrival: arrivalProc, Duration: *duration,
	}
	var summaries []workload.RunSummary
	budget := fmt.Sprintf("%d clients x %d ops", *clients, *ops)
	if *duration > 0 {
		budget = fmt.Sprintf("%d clients, %v", *clients, *duration)
	}
	dataset := fmt.Sprintf("SF %g", *sf)
	if *remote != "" {
		dataset = "remote " + *remote
	}
	title := fmt.Sprintf("Standard mix (%s loop), %s, %s, theta %g",
		driverMode, dataset, budget, *theta)
	if driverMode == workload.ModeOpen {
		title += fmt.Sprintf(", %s arrivals @ %g ops/s", arrivalProc, *rate)
	}
	t := metrics.NewTable(title,
		"engine", "op", "count", "mean", "p50", "p95", "p99", "int p99", "ops/s", "aborts")
	lt := metrics.NewTable("Lock-table telemetry",
		"engine", "acquires", "waits", "wait%", "wait time", "victims")
	dt := metrics.NewTable("Durability telemetry",
		"engine", "policy", "commits logged", "ops", "batches", "commits/batch", "fsyncs", "log KiB", "sealed")
	at := metrics.NewTable("Admission telemetry (server-side, run delta)",
		"engine", "queue depth max", "shed", "queue wait p99")
	// Closed loops have no arrival schedule, so the intended column
	// renders not-measured ("") rather than as a zero latency.
	intended := func(d time.Duration) any {
		if driverMode == workload.ModeOpen {
			return d
		}
		return ""
	}
	for _, e := range engines {
		res := workload.RunMix(e, info, workload.StandardMix(e), cfg)
		s := res.Summary()
		summaries = append(summaries, s)
		t.AddRow(s.Engine, "all", s.Ops, res.Latency.Mean(), s.P50NS, s.P95NS, s.P99NS,
			intended(s.IntendedP99NS), s.Throughput, s.Aborts)
		for _, op := range s.PerOp {
			t.AddRow(s.Engine, op.Name, op.Count, op.MeanNS, op.P50NS, op.P95NS, op.P99NS,
				intended(op.IntendedP99NS), "", "")
		}
		if ls := res.LockStats; ls != nil {
			lt.AddRow(s.Engine, ls.Acquires, ls.Waits,
				fmt.Sprintf("%.2f%%", 100*ls.WaitRate()), ls.WaitNS,
				ls.Detector.Victims)
		}
		if d := res.Durability; d != nil {
			perBatch := "-"
			if d.Batches > 0 {
				perBatch = fmt.Sprintf("%.1f", float64(d.Appends)/float64(d.Batches))
			}
			dt.AddRow(s.Engine, d.Policy, d.Appends, d.OpsLogged, d.Batches,
				perBatch, d.Fsyncs, d.Bytes/1024, d.Sealed)
		}
		if a := res.Admission; a != nil {
			at.AddRow(s.Engine, a.QueueDepthMax, a.Shed, a.QueueWaitP99NS)
		}
		if driverMode == workload.ModeOpen {
			note := ""
			if s.Dropped > 0 {
				note = fmt.Sprintf(", %d arrivals dropped at the drain deadline", s.Dropped)
			}
			fmt.Printf("%s: achieved %.1f of %g offered ops/s (%.1f%%)%s\n",
				s.Engine, s.AchievedRate, *rate, 100*res.Rate.Achievement(), note)
		}
	}
	fmt.Print(t.String())
	for _, telemetry := range []*metrics.Table{lt, dt, at} {
		if telemetry.NumRows() > 0 {
			fmt.Print(telemetry.String())
		}
	}
	if *jsonPath != "" {
		out := struct {
			SF      float64               `json:"sf"`
			Seed    uint64                `json:"seed"`
			Theta   float64               `json:"theta"`
			HopNS   time.Duration         `json:"hop_ns"`
			Mode    string                `json:"mode"`
			Arrival string                `json:"arrival"`
			Results []workload.RunSummary `json:"results"`
		}{*sf, *seed, *theta, *hop, driverMode.String(), arrivalName, summaries}
		if err := writeJSON(*jsonPath, out); err != nil {
			return err
		}
		fmt.Printf("wrote results to %s\n", *jsonPath)
	}
	return nil
}

// openDurable opens the durable unified store rooted at dir: a directory
// that already holds a history (same -sf/-seed runs append to it) is
// recovered, a fresh one gets the dataset loaded through the log.
func openDurable(dir, fsync string, ds *datagen.Dataset) (*durable.DB, error) {
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, fmt.Errorf("mix: %w", err)
	}
	d, err := durable.Open(dir, durable.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	if rec := d.Recovery; rec.WatermarkTS > 0 {
		fmt.Printf("recovered %s from %d log records + %d snapshot ops (%d KiB) in %v%s\n",
			dir, rec.Records, rec.SnapshotOps, rec.LogBytes/1024,
			rec.Elapsed.Round(time.Microsecond),
			map[bool]string{true: ", torn tail truncated", false: ""}[rec.Truncated])
		return d, nil
	}
	if err := ds.Load(d.Stores()); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// cmdServe loads a dataset, fronts one engine with the network server
// and blocks until interrupted.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7744", "listen address")
	sf := fs.Float64("sf", 0.2, "scale factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	hop := fs.Duration("hop", 100*time.Microsecond, "federation hop latency")
	engine := fs.String("engine", "udbms", "backend to serve: udbms, federation or relational")
	workers := fs.Int("workers", 4, "executor pool size")
	queue := fs.Int("queue", 256, "admission queue depth")
	deadline := fs.Duration("deadline", 100*time.Millisecond, "queue-wait budget before shedding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds := datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
	cfg := server.Config{
		Info: workload.InfoOf(ds), Workers: *workers,
		QueueDepth: *queue, QueueDeadline: *deadline,
	}
	be, err := core.NewBackend(*engine, ds, *hop)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	cfg.Engine = be
	s, err := server.Listen(*addr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s on %s (SF %g, seed %d, %d workers, queue %d, deadline %v)\n",
		cfg.Engine.Name(), s.Addr(), *sf, *seed, *workers, *queue, *deadline)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := s.Stats()
	fmt.Printf("\nshutting down: admitted %d, shed %d (%d queue-full + %d deadline), queue depth max %d, queue wait p99 %v\n",
		st.Admitted, st.Shed(), st.ShedQueueFull, st.ShedDeadline, st.QueueDepthMax, st.QueueWaitP99NS)
	return s.Close()
}

// cmdPing probes a running server — the CI readiness check.
func cmdPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7744", "server address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := server.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	t0 := time.Now()
	if err := cl.Ping(); err != nil {
		return err
	}
	si, err := cl.Info()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s engine up, %v round trip (customers %d, products %d, orders %d)\n",
		*addr, si.Engine, time.Since(t0).Round(time.Microsecond),
		si.Info.Customers, si.Info.Products, si.Info.Orders)
	return nil
}

func cmdGenerate(args []string) error {
	cfg, _, csv, jsonPath, err := benchFlags(args)
	if err != nil {
		return err
	}
	t0 := time.Now()
	ds := datagen.Generate(datagen.Config{ScaleFactor: cfg.SF, Seed: cfg.Seed})
	genTime := time.Since(t0)
	db := udbms.Open()
	t1 := time.Now()
	if err := ds.Load(db.Stores()); err != nil {
		return err
	}
	loadTime := time.Since(t1)
	st := db.Stats()
	t := metrics.NewTable(fmt.Sprintf("Dataset at SF %g (seed %d)", cfg.SF, cfg.Seed),
		"model", "entity", "count")
	t.AddRow("relational", "customer rows", st.Tables["customer"])
	t.AddRow("document", "order docs", st.Collections["orders"])
	t.AddRow("document", "product docs", st.Collections["products"])
	t.AddRow("key-value", "feedback pairs", st.KVPairs)
	t.AddRow("xml", "invoices", st.XMLDocs)
	t.AddRow("graph", "vertices", st.Vertices)
	t.AddRow("graph", "edges", st.Edges)
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
	if jsonPath != "" {
		if err := writeTablesJSON(jsonPath, t); err != nil {
			return err
		}
		fmt.Printf("wrote dataset statistics to %s\n", jsonPath)
	}
	fmt.Printf("\ngenerate %v, load %v\n", genTime.Round(time.Millisecond), loadTime.Round(time.Millisecond))
	return nil
}
