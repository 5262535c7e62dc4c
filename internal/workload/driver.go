package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"udbench/internal/federation"
	"udbench/internal/metrics"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// MixItem is one operation class in a workload mix.
type MixItem struct {
	// Name labels the operation in reports ("Q1", "T1", ...).
	Name string
	// Weight is the relative frequency (any positive integer).
	Weight int
	// Run executes one operation instance.
	Run func(p Params) error
}

// StandardMix returns the benchmark's default OLTP mix over a backend:
// 50% point/short queries (Q1), 20% order updates (T1), 15% new orders
// (T2), 10% feedback writes (T3), 5% snapshot reads (T4). Backends
// without the native transaction capability get the query subset only
// (weights kept, so the surviving items' relative frequencies are
// unchanged); a backend that cannot run Q1 either yields an empty mix,
// which RunMix rejects as a configuration error.
func StandardMix(b Backend) []MixItem {
	caps := b.Capabilities()
	te, _ := b.(TxnEngine)
	var items []MixItem
	if caps.SupportsQuery(Q1) {
		items = append(items, MixItem{Name: "Q1", Weight: 50, Run: func(p Params) error { _, err := b.RunQuery(Q1, p); return err }})
	}
	if te != nil && caps.Transactions {
		items = append(items,
			MixItem{Name: "T1", Weight: 20, Run: te.OrderUpdate},
			MixItem{Name: "T2", Weight: 15, Run: te.NewOrder},
			MixItem{Name: "T3", Weight: 10, Run: te.WriteFeedback},
			MixItem{Name: "T4", Weight: 5, Run: func(p Params) error { _, err := te.SnapshotRead(p); return err }},
		)
	}
	return items
}

// Result summarizes one driver run.
type Result struct {
	Engine  string
	Mode    DriverMode
	Clients int
	Ops     int64
	Errors  int64
	Aborts  int64 // deadlock or 2PC failures (subset of Errors)
	// Dropped counts open-loop arrivals abandoned at the drain
	// deadline of a duration-bounded run: the engine was so far behind
	// the schedule that finishing the backlog would have extended wall
	// time unboundedly. Always 0 for closed-loop and count-bounded
	// open-loop runs.
	Dropped int64
	Elapsed time.Duration
	// Latency is service latency: operation start to completion.
	Latency *metrics.Histogram
	// Intended is coordinated-omission-free latency, measured from each
	// operation's *scheduled* arrival to its completion, so queueing
	// delay behind a saturated engine is included. Only the open-loop
	// driver has a schedule; in closed-loop runs the histogram is empty.
	Intended *metrics.Histogram
	// PerOp carries one dual histogram per operation class: Service is
	// always populated, Intended only in open-loop runs (same contract
	// as the aggregate Latency/Intended pair). Per-op intended
	// percentiles show which transaction class queues first when the
	// engine saturates.
	PerOp map[string]*metrics.DualHistogram
	// Rate pairs the requested arrival rate (0 for closed loop) with
	// the completion rate the run sustained.
	Rate       metrics.Rate
	Throughput float64
	// LockStats is the engine's lock-table telemetry accrued during the
	// run (nil when the engine exposes none, e.g. synthetic mixes).
	LockStats *txn.LockStats
	// Durability is the engine's write-ahead-log telemetry accrued
	// during the run (nil when the engine runs without a log).
	Durability *wal.Stats
	// Admission is the serving-side admission-control telemetry accrued
	// during the run (nil when the engine is in-process: no queue exists
	// in front of it). Only remote engines, which sit behind a server's
	// bounded request queue, report it.
	Admission *AdmissionStats
	// Capabilities is the backend's capability descriptor, attached
	// only for partial backends (external engines that restrict the
	// query/transaction surface) so native-engine reports stay
	// unchanged.
	Capabilities *BackendCaps
}

// AdmissionStats is the server-side admission-control telemetry of one
// run: how deep the bounded request queue got, how many requests were
// shed (queue full or deadline missed) instead of served, and the p99
// of the time admitted requests spent queued before execution. Shed is
// a counter and delta-scoped per run; QueueDepthMax and QueueWaitP99NS
// are high-watermark/distribution figures over the server's lifetime up
// to the end of the run (a bounded queue makes both converge quickly).
type AdmissionStats struct {
	QueueDepthMax  int64         `json:"queue_depth_max"`
	Shed           int64         `json:"shed"`
	QueueWaitP99NS time.Duration `json:"queue_wait_p99_ns"`
}

// Delta returns the run-scoped difference for counter fields, keeping
// the end-of-run values for the gauge fields.
func (a AdmissionStats) Delta(base AdmissionStats) AdmissionStats {
	a.Shed -= base.Shed
	return a
}

// DriverMode selects the driver's load model.
type DriverMode int

const (
	// ModeClosed is the classic closed loop: each of Clients workers
	// issues its next operation only after the previous one completes,
	// so the offered load self-throttles to the engine's capacity.
	ModeClosed DriverMode = iota
	// ModeOpen is the open loop: operations arrive on a schedule drawn
	// from an arrival process at RateOpsPerSec regardless of whether
	// earlier operations have finished, as real clients do. Arrivals
	// queue when all workers are busy, and that queueing delay is
	// visible in the intended-latency histogram.
	ModeOpen
)

func (m DriverMode) String() string {
	if m == ModeOpen {
		return "open"
	}
	return "closed"
}

// ArrivalProcess selects how open-loop inter-arrival gaps are drawn.
type ArrivalProcess int

const (
	// ArrivalPoisson draws exponential inter-arrival gaps (a Poisson
	// process), the standard model for independent client arrivals.
	ArrivalPoisson ArrivalProcess = iota
	// ArrivalFixed spaces arrivals exactly 1/rate apart — a worst-case
	// metronome with no burstiness, useful for rate-fidelity tests.
	ArrivalFixed
)

func (a ArrivalProcess) String() string {
	if a == ArrivalFixed {
		return "fixed"
	}
	return "poisson"
}

// DriverConfig tunes a run.
type DriverConfig struct {
	// Clients is the number of concurrent workers. In closed-loop mode
	// each issues OpsPerClient operations back to back; in open-loop
	// mode the pool drains the arrival schedule.
	Clients int
	// OpsPerClient is how many operations each worker issues (the total
	// operation count Clients*OpsPerClient also sizes the open-loop
	// schedule).
	OpsPerClient int
	// Theta is the Zipf skew of parameter selection (0 = uniform).
	Theta float64
	// Seed drives parameter selection (and the arrival schedule).
	Seed uint64
	// Mode selects closed-loop (default) or open-loop driving.
	Mode DriverMode
	// RateOpsPerSec is the open-loop target arrival rate; ignored in
	// closed-loop mode. Open-loop runs with a non-positive rate default
	// to 1000 ops/s.
	RateOpsPerSec float64
	// Arrival is the open-loop arrival process (default Poisson).
	Arrival ArrivalProcess
	// Duration, when positive in open-loop mode, makes the run
	// time-bounded instead of count-bounded: arrivals are generated
	// lazily until Duration elapses (OpsPerClient no longer sizes the
	// schedule) and the backlog drains under a deadline — see
	// drainDeadline — after which remaining queued arrivals are
	// abandoned and counted in Result.Dropped, so a saturating sweep
	// step cannot extend wall time unboundedly. Ignored in closed-loop
	// mode.
	Duration time.Duration
}

// withDefaults fills in an unset client count and per-client op budget.
func (cfg DriverConfig) withDefaults(clients int) DriverConfig {
	if cfg.Clients <= 0 {
		cfg.Clients = clients
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 100
	}
	return cfg
}

// LockStatsProvider is implemented by engines whose lock tables export
// telemetry; RunMix snapshots it around the run and reports the delta.
type LockStatsProvider interface {
	LockStats() txn.LockStats
}

// DurabilityProvider is implemented by engines with a write-ahead log
// attached; RunMix snapshots the log telemetry around the run and
// reports the delta. A nil return means no log is attached for this
// run (the same engine type can run with or without durability).
type DurabilityProvider interface {
	DurabilityStats() *wal.Stats
}

// AdmissionProvider is implemented by engines that sit behind a
// server-side admission queue (remote engines); RunMix snapshots the
// telemetry around the run and reports the delta. A nil return means
// the telemetry is unavailable (e.g. the stats request failed).
type AdmissionProvider interface {
	AdmissionStats() *AdmissionStats
}

// NonceProvider is implemented by engines whose backing store outlives
// this process (remote engines): the process-local run-nonce sequence
// cannot guarantee FreshID uniqueness across *processes* sharing one
// server, so RunMix asks the engine for a nonce instead — the server
// issues them from its own atomic sequence. A zero return falls back
// to the process-local sequence.
type NonceProvider interface {
	RunNonce() uint64
}

// mixWeight sums the mix's weights.
func mixWeight(mix []MixItem) int {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	return total
}

// validateMix rejects mixes the weighted pick cannot draw from: an
// empty mix, a negative weight, or an all-zero weight sum would make
// pickMixIndex panic inside a worker goroutine (rng.Intn(0)), taking
// the whole process down instead of failing one run.
func validateMix(mix []MixItem) error {
	if len(mix) == 0 {
		return errors.New("workload: empty mix")
	}
	for _, m := range mix {
		if m.Weight < 0 {
			return fmt.Errorf("workload: mix item %q has negative weight %d", m.Name, m.Weight)
		}
	}
	if mixWeight(mix) <= 0 {
		return errors.New("workload: mix weights sum to zero")
	}
	return nil
}

// runSeq issues process-unique run nonces; every RunMix call gets its
// own, so FreshIDs from distinct runs (any mode, any config) can never
// collide on a shared store.
var runSeq atomic.Uint64

// pickMixIndex draws one weighted mix index from the generator's
// random stream. Both driver modes select operations through this,
// so closed- and open-loop runs share mix-fidelity semantics exactly.
func pickMixIndex(gen *ParamGen, mix []MixItem, totalWeight int) int {
	pick := gen.rng.Intn(totalWeight)
	for j, m := range mix {
		if pick < m.Weight {
			return j
		}
		pick -= m.Weight
	}
	return 0
}

// workerRecorder is the per-client measurement state of one RunMix
// worker. Each worker owns its recorder exclusively for the whole run,
// so recording an operation never takes a lock another worker can
// contend on; the driver merges recorders only after every worker has
// finished. This keeps the measurement harness itself off the scaling
// path it is measuring.
type workerRecorder struct {
	// lat records service latency for every operation and, in open-loop
	// mode, the coordinated-omission-free intended latency alongside it
	// (closed-loop runs leave the intended half empty).
	lat    metrics.DualHistogram
	perOp  []metrics.DualHistogram // index-aligned with the mix
	ops    int64
	errs   int64
	aborts int64
}

// observe records one finished operation: service latency always,
// intended latency only when the run has an arrival schedule.
func (rec *workerRecorder) observe(idx int, service, intended time.Duration, hasSchedule bool, err error) {
	rec.ops++
	if hasSchedule {
		rec.lat.Observe(service, intended)
		rec.perOp[idx].Observe(service, intended)
	} else {
		rec.lat.Service.Observe(service)
		rec.perOp[idx].Service.Observe(service)
	}
	if err != nil {
		rec.errs++
		if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, federation.ErrCoordinatorCrash) {
			rec.aborts++
		}
	}
}

// RunMix drives the weighted mix against a backend and returns
// aggregate metrics. Abort-class errors (deadlock, 2PC crash) are
// counted but do not stop the run; other errors are counted as Errors.
//
// cfg.Mode selects the load model. The default closed loop keeps
// Clients workers each running OpsPerClient operations back to back —
// deterministic per-client op sequences, load self-throttled to the
// engine. ModeOpen instead schedules arrivals at cfg.RateOpsPerSec
// from cfg.Arrival — Clients*OpsPerClient of them, or lazily for
// cfg.Duration when set — and measures both service and intended
// latency (see Result.Intended).
//
// Every call stamps its T2 FreshIDs with a process-unique run nonce,
// so repeated runs against the same loaded store (a rate sweep, an
// experiment ladder) never collide on order ids. Everything else about
// a run — op sequence, parameters, arrivals — remains a pure function
// of the config.
func RunMix(b Backend, info Info, mix []MixItem, cfg DriverConfig) Result {
	cfg = cfg.withDefaults(1)
	// A nil backend is allowed: the mix items carry their own Run
	// closures, which is how driver-level tests exercise RunMix with
	// synthetic operations.
	name := "synthetic"
	var caps Capabilities
	if b != nil {
		name = b.Name()
		caps = b.Capabilities()
	}
	res := Result{
		Engine:   name,
		Mode:     cfg.Mode,
		Clients:  cfg.Clients,
		Latency:  &metrics.Histogram{},
		Intended: &metrics.Histogram{},
		PerOp:    make(map[string]*metrics.DualHistogram, len(mix)),
	}
	for _, m := range mix {
		res.PerOp[m.Name] = &metrics.DualHistogram{}
	}
	if err := validateMix(mix); err != nil {
		// An undrivable mix is a configuration error, not a crash: the
		// zero Result comes back with one error counted so sweeps and
		// reports see a failed run instead of a dead process.
		res.Errors = 1
		return res
	}
	// All optional telemetry flows through the one capability
	// descriptor: a provider is present iff the backend set the field,
	// so no per-provider type asserts (and no duplicated nil-engine
	// guards) remain here.
	var lockBase txn.LockStats
	if caps.LockStats != nil {
		lockBase = caps.LockStats.LockStats()
	}
	var durBase *wal.Stats
	if caps.Durability != nil {
		durBase = caps.Durability.DurabilityStats()
	}
	var admBase *AdmissionStats
	if caps.Admission != nil {
		admBase = caps.Admission.AdmissionStats()
	}
	nonce := uint64(0)
	if caps.Nonce != nil {
		nonce = caps.Nonce.RunNonce()
	}
	if nonce == 0 {
		nonce = runSeq.Add(1)
	}
	recs := make([]workerRecorder, cfg.Clients)
	for c := range recs {
		recs[c].perOp = make([]metrics.DualHistogram, len(mix))
	}
	if cfg.Mode == ModeOpen {
		if cfg.RateOpsPerSec <= 0 {
			cfg.RateOpsPerSec = 1000
		}
		res.Rate.Offered = cfg.RateOpsPerSec
		res.Elapsed, res.Dropped = runOpen(mix, cfg, newOpenScheduler(info, mix, cfg, nonce), recs)
	} else {
		res.Elapsed = runClosed(info, mix, cfg, recs, nonce)
	}
	for c := range recs {
		rec := &recs[c]
		res.Ops += rec.ops
		res.Errors += rec.errs
		res.Aborts += rec.aborts
		res.Latency.Merge(&rec.lat.Service)
		res.Intended.Merge(&rec.lat.Intended)
		for j, m := range mix {
			res.PerOp[m.Name].Merge(&rec.perOp[j])
		}
	}
	res.Throughput = metrics.Throughput(res.Ops, res.Elapsed)
	res.Rate.Achieved = res.Throughput
	if caps.LockStats != nil {
		delta := caps.LockStats.LockStats().Delta(lockBase)
		res.LockStats = &delta
	}
	if durBase != nil {
		if end := caps.Durability.DurabilityStats(); end != nil {
			delta := end.Delta(*durBase)
			res.Durability = &delta
		}
	}
	if admBase != nil {
		if end := caps.Admission.AdmissionStats(); end != nil {
			delta := end.Delta(*admBase)
			res.Admission = &delta
		}
	}
	// Partial backends carry their capability descriptor into the
	// report so cross-engine legs are interpretable; native engines
	// attach nothing and their JSON stays unchanged.
	if b != nil {
		res.Capabilities = caps.Report()
	}
	return res
}

// runClients is the driver's one client fan-out — the closed loop, the
// open loop's workers, the contention sweep and the torn-read probe all
// spawn here: n goroutines run client(c); their wall time comes back.
func runClients(n int, client func(c int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// drawOps is one closed-loop client: op runs cfg.OpsPerClient times, back
// to back, drawing its parameters from the client's own generator. The
// sequence depends only on (seed, theta, info); callers derive seed as
// cfg.Seed + client*stride, and the strides (7919 RunMix, 104729
// RunContention, 31/37 torn-read writers/readers) are frozen: they fix
// every recorded per-client op sequence.
func drawOps(info Info, cfg DriverConfig, seed uint64, op func(i int, gen *ParamGen)) {
	gen := NewParamGen(info, seed, cfg.Theta)
	for i := 0; i < cfg.OpsPerClient; i++ {
		op(i, gen)
	}
}

// runClosed is the classic closed loop: each worker issues operations
// back to back. Only the FreshID carries the run nonce, so repeats of
// one config stay comparable while never reusing order ids.
func runClosed(info Info, mix []MixItem, cfg DriverConfig, recs []workerRecorder, nonce uint64) time.Duration {
	totalWeight := mixWeight(mix)
	return runClients(cfg.Clients, func(client int) {
		rec := &recs[client]
		drawOps(info, cfg, cfg.Seed+uint64(client)*7919, func(i int, gen *ParamGen) {
			p := gen.Next()
			p.FreshID = gen.NewOrderID(nonce, client, i)
			idx := pickMixIndex(gen, mix, totalWeight)
			t0 := time.Now()
			err := mix[idx].Run(p)
			rec.observe(idx, time.Since(t0), 0, false, err)
		})
	})
}

// TornReadResult reports a torn-read probe (cross-model atomicity as
// observed by concurrent readers).
type TornReadResult struct {
	Engine string
	Reads  int64
	Torn   int64
}

// RunTornReadProbe runs writer clients hammering T1 on a skewed order
// set while reader clients repeatedly perform T4 snapshot reads on the
// same orders, and counts how many reads observed a torn state (order
// document and XML invoice disagreeing). The unified engine must
// report zero; the federation's independent per-store reads may not.
func RunTornReadProbe(e Engine, info Info, cfg DriverConfig) TornReadResult {
	cfg = cfg.withDefaults(4)
	var reads, torn atomic.Int64
	writers := max(cfg.Clients/2, 1)
	readers := max(cfg.Clients-writers, 1)
	runClients(writers+readers, func(c int) {
		if c < writers {
			drawOps(info, cfg, cfg.Seed+uint64(c)*31, func(_ int, gen *ParamGen) {
				_ = e.OrderUpdate(gen.Next())
			})
			return
		}
		drawOps(info, cfg, cfg.Seed+uint64(c-writers)*37, func(_ int, gen *ParamGen) {
			isTorn, err := e.SnapshotRead(gen.Next())
			if err != nil {
				return
			}
			reads.Add(1)
			if isTorn {
				torn.Add(1)
			}
		})
	})
	return TornReadResult{Engine: e.Name(), Reads: reads.Load(), Torn: torn.Load()}
}

// RunQueriesOnce executes every benchmark query once with fixed
// parameters and returns per-query latencies and result counts —
// the basis of the T2 (query latency) experiment. It needs only the
// core Backend contract.
func RunQueriesOnce(e Backend, info Info, seed uint64) (map[QueryID]time.Duration, map[QueryID]int, error) {
	gen := NewParamGen(info, seed, 0)
	p := gen.Next()
	lat := make(map[QueryID]time.Duration, len(AllQueries))
	counts := make(map[QueryID]int, len(AllQueries))
	for _, q := range AllQueries {
		t0 := time.Now()
		n, err := e.RunQuery(q, p)
		if err != nil {
			return nil, nil, err
		}
		lat[q] = time.Since(t0)
		counts[q] = n
	}
	return lat, counts, nil
}

// ContentionResult summarizes a write-contention run (experiment F3).
type ContentionResult struct {
	Engine     string
	Theta      float64
	Committed  int64
	Attempts   int64
	AbortRate  float64 // first-try aborts / attempts
	Throughput float64
	Elapsed    time.Duration
}

// RunContention drives single-attempt stock-transfer transactions
// (StockTransferOnce) with the given Zipf skew and measures the
// deadlock/abort rate. Higher skew concentrates transfers on a hot
// product pair locked in either order, so aborts rise with theta.
func RunContention(e Engine, info Info, cfg DriverConfig) ContentionResult {
	cfg = cfg.withDefaults(4)
	var committed atomic.Int64
	elapsed := runClients(cfg.Clients, func(c int) {
		drawOps(info, cfg, cfg.Seed+uint64(c)*104729, func(_ int, gen *ParamGen) {
			if err := e.StockTransferOnce(gen.Next()); err == nil {
				committed.Add(1)
			}
		})
	})
	att, com := int64(cfg.Clients*cfg.OpsPerClient), committed.Load()
	rate := 0.0
	if att > 0 {
		rate = float64(att-com) / float64(att)
	}
	return ContentionResult{
		Engine:     e.Name(),
		Theta:      cfg.Theta,
		Committed:  com,
		Attempts:   att,
		AbortRate:  rate,
		Throughput: metrics.Throughput(com, elapsed),
		Elapsed:    elapsed,
	}
}
