package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/durable"
	"udbench/internal/server"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// Load model shared by every workload: a count-bounded closed loop, so
// each client's op sequence is a pure function of the seed.
const (
	clients = 2
	theta   = 0.5
)

// spec is one benchmark workload. A run repeats rounds of it; every
// round builds a fresh store from the seed and drives opsPerClient ops
// per client through workload.RunMix.
type spec struct {
	name string
	sf   float64
	// opsPerClient is frozen: calibrated once so a round measures about
	// three seconds on the reference box (see README), never edited after.
	opsPerClient int
	// served puts server.Listen and server.DialEngine over loopback TCP
	// between the driver and the engine.
	served bool
	// durable opens the store through durable.Open on a real directory,
	// drives the write-only mix and recovers the log after the run.
	durable bool
	// analytics replaces the mix with whole Q1–Q13 passes (read-only).
	analytics bool
	// headline lists the op classes whose latencies make up op_p50_us.
	headline []string
}

var (
	readClasses  = []string{"Q1"}
	writeClasses = []string{"T1", "T2", "T3"}
)

var specs = []spec{
	{name: "t2-inproc", sf: 1, opsPerClient: 3000, headline: readClasses},
	{name: "t2-served", sf: 1, opsPerClient: 3000, served: true, headline: readClasses},
	{name: "t2-durable", sf: 1, opsPerClient: 10000, durable: true, headline: writeClasses},
	{name: "analytics-ro", sf: 4, opsPerClient: 30, analytics: true, headline: []string{"pass"}},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// pinnedNonce makes the run nonce inside T2's fresh order ids a
// constant instead of a process-wide (or server-wide) sequence number,
// so the bytes a round writes depend on the seed alone. RunMix only
// asks its backend argument for a name and capabilities; the mix items
// call the engine itself.
type pinnedNonce struct{ workload.Backend }

func (p pinnedNonce) Capabilities() workload.Capabilities {
	c := p.Backend.Capabilities()
	c.Nonce = p
	return c
}

func (pinnedNonce) RunNonce() uint64 { return 1 }

// round is what one round measured. Every value is keyed by the metric
// name it is printed under; lat keeps the raw per-class latencies (ns)
// of the driver.op spans.
type round struct {
	traced    bool
	values    map[string]float64
	lat       map[string][]int64
	attempted int64
	failed    int64
	// cardinality is the summed result cardinality of every query the
	// round ran inside passes (analytics-ro), which must repeat exactly.
	cardinality int64
	problems    []string
}

func (r *round) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// testbed is one round's freshly built system under test.
type testbed struct {
	db     *udbms.DB
	dur    *durable.DB // nil unless the workload is durable
	walDir string
	srv    *server.Server // nil unless the workload is served
	// native is the engine itself; front is what the driver's connections
	// talk to: native, native behind the span wrapper, or either behind
	// the server and the wire.
	native *workload.UDBMSEngine
	front  workload.Engine
	info   workload.Info
	rec    *recorder
	// generated, loaded and setup time the set-up: generate, (open the
	// WAL,) load, (listen and dial).
	generated, loaded, setup time.Duration
	closers                  []func()
}

func (tb *testbed) close() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
}

func build(sp spec, seed uint64, traced bool, outDir string) (tb *testbed, err error) {
	tb = &testbed{}
	defer func() {
		if err != nil {
			tb.close()
		}
	}()
	start := time.Now()
	ds := datagen.Generate(datagen.Config{ScaleFactor: sp.sf, Seed: seed})
	tb.generated = time.Since(start)
	if sp.durable {
		if tb.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
		tb.closers = append(tb.closers, func() { os.RemoveAll(tb.walDir) })
		if tb.dur, err = durable.Open(tb.walDir, durable.Options{Policy: wal.SyncGroup, FS: steadyDisk{}}); err != nil {
			return nil, err
		}
		tb.closers = append(tb.closers, func() { tb.dur.Close() }) // harmless after the round's own Close
		tb.db = tb.dur.DB
	} else {
		tb.db = udbms.Open()
	}
	loadStart := time.Now()
	db := tb.db
	if err := ds.Load(datagen.Target{Relational: db.Relational, Docs: db.Docs, Graph: db.Graph, KV: db.KV, XML: db.XML}); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	tb.loaded = time.Since(loadStart)
	tb.info = workload.InfoOf(ds)
	tb.native = workload.NewUDBMSEngine(db)
	if tb.dur != nil {
		tb.native.Durable = tb.dur
	}
	spansPerOp := 1
	if traced {
		spansPerOp = 2
		if sp.analytics {
			spansPerOp = 1 + len(workload.AllQueries)
		}
	}
	// A tenth more than the op count calls for: an op retried by its
	// client enters the engine again.
	tb.rec = newRecorder(clients*sp.opsPerClient*spansPerOp*11/10 + 64)
	tb.front = tb.native
	if traced {
		tb.front = tracedEngine{Engine: tb.native, rec: tb.rec}
	}
	if sp.served {
		if tb.srv, err = server.Listen("127.0.0.1:0", server.Config{Engine: tb.front, Info: tb.info, Workers: clients}); err != nil {
			return nil, err
		}
		tb.closers = append(tb.closers, func() { tb.srv.Close() })
		remote, err := server.DialEngine(tb.srv.Addr().String(), clients)
		if err != nil {
			return nil, err
		}
		tb.closers = append(tb.closers, remote.Close)
		tb.front = remote
	}
	tb.setup = time.Since(start)
	return tb, nil
}

// runRound builds the workload's store, runs one count-bounded closed
// loop over it and checks what it left behind. Work that is not set-up
// (GC, stats snapshots, output checks, trace writing) stays outside
// both the set-up and the run timings.
func runRound(sp spec, seed uint64, traced, firstRound bool, outDir string) (*round, error) {
	r := &round{traced: traced, values: map[string]float64{}}
	runtime.GC()
	tb, err := build(sp, seed, traced, outDir)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	front, info, rec := tb.front, tb.info, tb.rec
	r.values["setup_s"] = tb.setup.Seconds()
	r.values["datagen.generate_s"] = tb.generated.Seconds()
	r.values["datagen.load_s"] = tb.loaded.Seconds()

	if firstRound && !sp.analytics {
		checkCardinalities(r, tb.native, front, info, seed)
	}

	var torn, cardinality, retries atomic.Int64
	// retried makes a write op what a client makes of it: a transaction
	// that is begun again, after a growing pause, when it comes back a
	// deadlock victim. The engine's own three immediate retries can all be
	// victimised again (ROADMAP item 1), about once in 50 000 ops while
	// locks are held across an fsync; the pause lets the other client
	// through. The retries are counted, not hidden.
	retried := func(run func(workload.Params) error) func(workload.Params) error {
		return func(p workload.Params) error {
			err := run(p)
			for i := 1; i <= 20 && errors.Is(err, txn.ErrDeadlock); i++ {
				retries.Add(1)
				time.Sleep(time.Duration(i) * time.Millisecond)
				err = run(p)
			}
			return err
		}
	}
	var mix []workload.MixItem
	switch {
	case sp.analytics:
		mix = []workload.MixItem{{Name: "pass", Weight: 1, Run: func(p workload.Params) error {
			for _, q := range workload.AllQueries {
				n, err := front.RunQuery(q, p)
				if err != nil {
					return err
				}
				cardinality.Add(int64(n))
			}
			return nil
		}}}
	case sp.durable:
		// f6's write-only mix: only the classes that append commit records.
		mix = []workload.MixItem{
			{Name: "T1", Weight: 20, Run: retried(front.OrderUpdate)},
			{Name: "T2", Weight: 15, Run: retried(front.NewOrder)},
			{Name: "T3", Weight: 10, Run: retried(front.WriteFeedback)},
		}
	default:
		mix = workload.StandardMix(front)
		for i := range mix {
			switch mix[i].Name {
			case "T1", "T2", "T3":
				mix[i].Run = retried(mix[i].Run)
			case "T4": // StandardMix drops the torn flag; keep it
				mix[i].Run = func(p workload.Params) error {
					isTorn, err := front.SnapshotRead(p)
					if isTorn {
						torn.Add(1)
					}
					return err
				}
			}
		}
	}

	before := takeSnapshot(tb)
	rec.reset()
	res := workload.RunMix(pinnedNonce{front}, info, rec.wrapMix(mix), workload.DriverConfig{
		Clients: clients, OpsPerClient: sp.opsPerClient, Theta: theta, Seed: seed,
	})
	after := takeSnapshot(tb)

	// End-to-end figures of this round.
	shed := after.adm.Shed() - before.adm.Shed()
	r.attempted = res.Ops + res.Dropped
	r.failed = res.Errors + res.Dropped // a shed request reaches the driver as an error
	r.cardinality = cardinality.Load()
	ok := res.Ops - res.Errors
	r.values["throughput_ops_s"] = float64(ok) / res.Elapsed.Seconds()
	r.values["elapsed_s"] = res.Elapsed.Seconds()
	spans := rec.recorded()
	r.lat = latencies(spans, layerDriver)
	r.values["op_p50_us"] = p50us(r.lat, sp.headline)
	for name, classes := range map[string][]string{"read_p50_us": readClasses, "write_p50_us": writeClasses} {
		if v := p50us(r.lat, classes); v > 0 { // only where the workload has the class
			r.values[name] = v
		}
	}
	if n := rec.dropped.Load(); n > 0 {
		r.failf("%d spans did not fit the recorder", n)
	}
	if r.failed > 0 {
		r.failf("%d of %d ops failed (%d aborts, %d shed), first: %v", r.failed, r.attempted, res.Aborts, shed, *rec.firstErr.Load())
	}

	// Per-layer figures: deltas of the public stats around the run.
	ops := float64(res.Ops)
	lock := after.lock.Delta(before.lock)
	r.values["txn.acquires_per_op"] = float64(lock.Acquires) / ops
	r.values["txn.wait_frac"] = lock.WaitRate()
	r.values["txn.wait_us_per_op"] = float64(lock.WaitNS.Microseconds()) / ops
	r.values["txn.victims"] = float64(lock.Detector.Victims)
	r.values["txn.client_retries"] = float64(retries.Load())
	w := after.wal.Delta(before.wal)
	r.values["wal.fsyncs"] = float64(w.Fsyncs)
	r.values["wal.bytes_per_commit"] = ratio(float64(w.Bytes), float64(w.Appends))
	r.values["wal.commits_per_fsync"] = ratio(float64(w.Appends), float64(w.Fsyncs))
	r.values["server.queue_depth_max"] = float64(after.adm.QueueDepthMax)
	r.values["server.queue_wait_p99_us"] = float64(after.adm.QueueWaitP99NS) / 1e3
	r.values["server.shed"] = float64(shed)
	r.values["allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	r.values["gc_pause_total_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	r.values["heap_end_mb"] = float64(after.mem.HeapAlloc) / (1 << 20)
	r.values["store.orders_added"] = float64(after.db.Collections["orders"] - before.db.Collections["orders"])
	r.values["store.kv_pairs_added"] = float64(after.db.KVPairs - before.db.KVPairs)
	r.values["store.edges_added"] = float64(after.db.Edges - before.db.Edges)
	if traced {
		// A request's time outside the engine is its driver.op span minus
		// the engine.op spans that share its stamp: the recorder's own
		// cost in process, the wire and the server when served.
		self, inEngine := outsideEngine(spans), latencies(spans, layerEngine)
		if sp.served {
			for class, d := range self {
				r.values["server.self."+class+"_us"] = float64(percentile(d, 50)) / 1e3
			}
		}
		r.values["outside_engine_p50_us"] = p50us(self, sortedKeys(self))
		r.values["outside_engine_us_per_op"] = float64(sumNS(self)) / 1e3 / ops
		r.values["engine_us_per_op"] = float64(sumNS(inEngine)) / 1e3 / ops
		for class, d := range inEngine {
			name := "udbms.exec." + class + "_p50_us"
			if sp.analytics {
				name = "udbms.q" + class[1:] + "_p50_us"
			}
			r.values[name] = float64(percentile(d, 50)) / 1e3
		}
		if err := writeTrace(filepath.Join(outDir, "trace-"+sp.name+".json"), spans); err != nil {
			return nil, err
		}
	}

	// Output checks on what the run left behind.
	if !sp.analytics {
		committedT2 := 0
		for _, s := range spans {
			if s.Layer == layerDriver && s.Class == classT2 && s.OK {
				committedT2++
			}
		}
		want := before.db.Collections["orders"] + committedT2
		if got := after.db.Collections["orders"]; got != want || after.db.XMLDocs != want {
			r.failf("after the run: %d order docs, %d XML invoices, want base %d + committed T2 %d = %d",
				got, after.db.XMLDocs, before.db.Collections["orders"], committedT2, want)
		}
		// A quiescent sweep of T4 over seeded orders: T1 moves an order's
		// document and invoice totals together, so none may disagree.
		gen := workload.NewParamGen(info, seed+1, theta)
		for i := 0; i < 200; i++ {
			if isTorn, err := tb.native.SnapshotRead(gen.Next()); err != nil || isTorn {
				torn.Add(1)
			}
		}
		if n := torn.Load(); n > 0 {
			r.failf("%d torn T4 reads", n)
		}
	}
	if tb.dur != nil {
		if err := r.recoverLog(tb, after); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recoverLog closes the round's durable store, opens its directory
// again and holds what recovery rebuilt against what was there.
func (r *round) recoverLog(tb *testbed, after snapshot) error {
	if err := tb.dur.Close(); err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}
	reopened, err := durable.Open(tb.walDir, durable.Options{Policy: wal.SyncGroup, FS: steadyDisk{}})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	rcv := reopened.Recovery
	recovered := reopened.DB.Stats()
	reopened.Close()
	r.values["recovery_s"] = rcv.Elapsed.Seconds()
	r.values["durable.replay_records_per_s"] = float64(rcv.Records) / rcv.Elapsed.Seconds()
	if !reflect.DeepEqual(recovered, after.db) {
		r.failf("recovered store %+v differs from the store before Close %+v", recovered, after.db)
	}
	if uint64(rcv.Records) != after.wal.Appends || rcv.Truncated {
		r.failf("recovery replayed %d records (truncated %v), the log holds %d appends", rcv.Records, rcv.Truncated, after.wal.Appends)
	}
	return nil
}

// steadyDisk is the real file system with one change: the durability
// barrier is a fixed wait instead of the device's fsync. This sandbox's
// disk takes 85 to 160 µs per fsync from one quarter second to the
// next, which moved t2-durable's throughput by 8 to 13 % between
// identical runs, more than its bound; a timer cannot stand in either
// (time.Sleep(100µs) takes 1.1 ms here), so the wait spins. Files are
// still written to and recovered from a real directory, and the real
// barrier is measured, ungated, by the wal.append_commit_us probe.
type steadyDisk struct{ wal.OSFS }

const barrier = 100 * time.Microsecond

func (d steadyDisk) OpenAppend(name string) (wal.File, error) {
	f, err := d.OSFS.OpenAppend(name)
	return steadyFile{f}, err
}

func (d steadyDisk) Create(name string) (wal.File, error) {
	f, err := d.OSFS.Create(name)
	return steadyFile{f}, err
}

type steadyFile struct{ wal.File }

func (steadyFile) Sync() error {
	for start := time.Now(); time.Since(start) < barrier; {
	}
	return nil
}

// snapshot is the public stats of every layer at one instant.
type snapshot struct {
	mem  runtime.MemStats
	lock txn.LockStats
	wal  wal.Stats
	adm  server.AdmissionSnapshot
	db   udbms.Stats
}

func takeSnapshot(tb *testbed) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.lock = tb.db.Manager().LockStats()
	s.db = tb.db.Stats()
	if tb.dur != nil {
		s.wal = *tb.dur.DurabilityStats()
	}
	if tb.srv != nil {
		s.adm = tb.srv.Stats()
	}
	return s
}

// checkCardinalities runs every query on the freshly loaded store with
// a few seeded parameter sets: in process and through the driver's own
// connection the cardinalities must be identical, and no query may come
// back empty on all of them (an empty result would check nothing).
func checkCardinalities(r *round, native, front workload.Backend, info workload.Info, seed uint64) {
	nonZero := map[workload.QueryID]bool{}
	for i := uint64(0); i < 4; i++ {
		_, want, err := workload.RunQueriesOnce(native, info, seed+i)
		if err != nil {
			r.failf("queries in process: %v", err)
			return
		}
		_, got, err := workload.RunQueriesOnce(front, info, seed+i)
		if err != nil {
			r.failf("queries through %s: %v", front.Name(), err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			r.failf("query cardinalities through %s %v differ from in-process %v", front.Name(), got, want)
		}
		for q, n := range want {
			nonZero[q] = nonZero[q] || n > 0
		}
	}
	for _, q := range workload.AllQueries {
		if !nonZero[q] {
			r.failf("%v returned no rows on the fresh store", q)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies groups the durations of one layer's spans by op class,
// each class sorted ascending.
func latencies(spans []span, layer uint8) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		if s.Layer == layer && s.OK {
			out[classNames[s.Class]] = append(out[classNames[s.Class]], s.End-s.Start)
		}
	}
	for _, d := range out {
		slices.Sort(d)
	}
	return out
}

// outsideEngine joins the spans of each request and returns, per op
// class of the driver.op span, the time the request spent outside its
// engine.op spans, sorted ascending.
func outsideEngine(spans []span) map[string][]int64 {
	type request struct {
		client int16
		seq    int32
	}
	inEngine := map[request]int64{}
	for _, s := range spans {
		if s.Layer == layerEngine {
			inEngine[request{s.Client, s.Seq}] += s.End - s.Start
		}
	}
	out := map[string][]int64{}
	for _, s := range spans {
		if s.Layer == layerDriver && s.OK {
			out[classNames[s.Class]] = append(out[classNames[s.Class]], s.End-s.Start-inEngine[request{s.Client, s.Seq}])
		}
	}
	for _, d := range out {
		slices.Sort(d)
	}
	return out
}

func sumNS(byClass map[string][]int64) int64 {
	var sum int64
	for _, d := range byClass {
		for _, v := range d {
			sum += v
		}
	}
	return sum
}

// percentile reads the p-th percentile off a sorted sample (nearest rank).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// p50us is the median latency, in µs, over the named classes together.
func p50us(byClass map[string][]int64, classes []string) float64 {
	var all []int64
	for _, c := range classes {
		all = append(all, byClass[c]...)
	}
	slices.Sort(all)
	return float64(percentile(all, 50)) / 1e3
}

// result is one workload's run: its rounds folded into medians.
type result struct {
	spec      spec
	rounds    []*round
	untraced  int
	traced    int
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
	classes   map[string]classStats
}

// classStats is the ungated per-class diagnostic: the median and the
// highest percentile that still has ten samples beyond it.
type classStats struct {
	Count   int     `json:"count"`
	P50us   float64 `json:"p50_us"`
	TailPct float64 `json:"tail_pct"`
	Tailus  float64 `json:"tail_us"`
}

// runWorkload repeats rounds until the time budget is spent. Each
// round's data and parameters come from a seed of its own, derived from
// the run's, so a run's medians are taken over several data sets and do
// not hang on one hot customer. With tracing on, every derived seed is
// run twice, untraced then traced: end-to-end figures always come from
// untraced rounds, per-layer figures from traced ones, and their ratio
// is the tracing overhead.
func runWorkload(sp spec, seed uint64, budget time.Duration, trace bool, outDir string) (*result, error) {
	res := &result{spec: sp}
	start := time.Now()
	// One short round first, thrown away: a process's first round is 5 to
	// 25 % slow (the heap grows to the store's size, pages fault in), and
	// with three to six rounds in a run that would drag the medians.
	warmup := sp
	warmup.opsPerClient = max(1, sp.opsPerClient/10)
	if _, err := runRound(warmup, seed, false, false, outDir); err != nil {
		return nil, fmt.Errorf("%s warm-up round: %w", sp.name, err)
	}
	for i := 0; ; i++ {
		traced, pair := false, i
		if trace {
			traced, pair = i%2 == 1, i/2
		}
		r, err := runRound(sp, seed*1_000_003+uint64(pair), traced, i == 0, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", sp.name, i, err)
		}
		res.rounds = append(res.rounds, r)
		if traced {
			res.traced++
		} else {
			res.untraced++
		}
		if time.Since(start) >= budget && (!trace || res.traced > 0) {
			break
		}
	}
	res.fold()
	return res, nil
}

// fold reduces the rounds to one median per metric name.
func (res *result) fold() {
	res.metrics = map[string]float64{}
	samples := map[bool]map[string][]float64{false: {}, true: {}}
	pooled := map[string][]int64{}
	for i, r := range res.rounds {
		res.attempted += r.attempted
		res.failed += r.failed
		res.problems = append(res.problems, r.problems...)
		for k, v := range r.values {
			// Set-up is the same work traced or not: every round is a sample.
			traced := r.traced && k != "setup_s" && !strings.HasPrefix(k, "datagen.")
			samples[traced][k] = append(samples[traced][k], v)
		}
		if !r.traced {
			for class, d := range r.lat {
				pooled[class] = append(pooled[class], d...)
			}
		}
		if r.traced && r.cardinality != res.rounds[i-1].cardinality {
			res.problems = append(res.problems, fmt.Sprintf("round %d: summed result cardinality %d traced, %d untraced on the same seed",
				i, r.cardinality, res.rounds[i-1].cardinality))
		}
	}
	// Timings come from untraced rounds wherever a name exists there;
	// names only traced rounds produce (engine spans) come from those.
	for k, v := range samples[true] {
		res.metrics[k] = median(v)
	}
	for k, v := range samples[false] {
		res.metrics[k] = median(v)
	}
	if res.traced > 0 {
		res.metrics["trace_overhead_frac"] = median(samples[true]["elapsed_s"])/median(samples[false]["elapsed_s"]) - 1
	}
	res.classes = map[string]classStats{}
	for class, d := range pooled {
		slices.Sort(d)
		tail := 95.0
		if len(d) >= 1000 {
			tail = 99
		}
		res.classes[class] = classStats{Count: len(d), P50us: float64(percentile(d, 50)) / 1e3, TailPct: tail, Tailus: float64(percentile(d, tail)) / 1e3}
	}
}

func (res *result) correct() bool { return len(res.problems) == 0 }

func (res *result) err() error {
	if res.correct() {
		return nil
	}
	return errors.New(res.spec.name + ": " + fmt.Sprint(res.problems))
}
