package workload

import (
	"math"
	"sync/atomic"
	"time"

	"udbench/internal/datagen"
)

// arrivalSeedSalt decorrelates the arrival-gap random stream from the
// parameter-selection stream, which both derive from DriverConfig.Seed.
const arrivalSeedSalt = 0x9E3779B97F4A7C15

// ArrivalSchedule generates deterministic operation arrival offsets for
// the open-loop driver: each Next call returns the offset (from run
// start) at which the next operation is *scheduled* to arrive,
// independent of how long any operation actually takes. Poisson
// schedules draw exponential inter-arrival gaps; fixed schedules space
// arrivals exactly 1/rate apart. The same (process, rate, seed) always
// yields the same schedule.
type ArrivalSchedule struct {
	process  ArrivalProcess
	interval float64 // mean seconds between arrivals (1/rate)
	rng      *datagen.RNG
	at       float64 // offset in seconds of the last arrival issued
}

// NewArrivalSchedule builds a schedule with the given arrival process
// and target rate in operations per second (non-positive rates are
// clamped to 1 op/s).
func NewArrivalSchedule(process ArrivalProcess, rateOpsPerSec float64, seed uint64) *ArrivalSchedule {
	if rateOpsPerSec <= 0 {
		rateOpsPerSec = 1
	}
	return &ArrivalSchedule{
		process:  process,
		interval: 1 / rateOpsPerSec,
		rng:      datagen.NewRNG(seed),
	}
}

// Next returns the next scheduled arrival offset and advances the
// schedule.
func (s *ArrivalSchedule) Next() time.Duration {
	switch s.process {
	case ArrivalFixed:
		s.at += s.interval
	default: // Poisson: exponential gaps, -ln(1-U)/rate with U in [0,1)
		s.at += -math.Log1p(-s.rng.Float64()) * s.interval
	}
	return time.Duration(s.at * float64(time.Second))
}

// scheduledOp is one generated open-loop operation: what to run, with
// which parameters, and when it is scheduled to arrive.
type scheduledOp struct {
	due time.Duration // scheduled arrival, as an offset from run start
	idx int           // mix item index
	p   Params
}

// openScheduler generates the open-loop run — parameters, weighted mix
// picks, and arrival times — lazily from a single seeded stream, so
// the schedule is deterministic regardless of worker interleaving at
// execution time and a duration-bounded run never materializes more
// arrivals than its horizon admits. Count-bounded runs (Duration == 0)
// stop after Clients*OpsPerClient arrivals, mirroring the closed
// loop's op budget; duration-bounded runs stop at the first arrival
// scheduled past the horizon.
type openScheduler struct {
	gen         *ParamGen
	arr         *ArrivalSchedule
	totalWeight int
	mix         []MixItem
	nonce       uint64
	limit       int           // op-count bound (0 in duration mode)
	horizon     time.Duration // duration bound (0 in count mode)
	i           int
}

// newOpenScheduler builds the lazy schedule source for one run. The
// nonce goes into every FreshID so successive runs on one store never
// re-insert an order id (see RunMix).
func newOpenScheduler(info Info, mix []MixItem, cfg DriverConfig, nonce uint64) *openScheduler {
	s := &openScheduler{
		gen:         NewParamGen(info, cfg.Seed, cfg.Theta),
		arr:         NewArrivalSchedule(cfg.Arrival, cfg.RateOpsPerSec, cfg.Seed^arrivalSeedSalt),
		totalWeight: mixWeight(mix),
		mix:         mix,
		nonce:       nonce,
	}
	if cfg.Duration > 0 {
		s.horizon = cfg.Duration
	} else {
		s.limit = cfg.Clients * cfg.OpsPerClient
	}
	return s
}

// next returns the next scheduled operation, or ok=false when the
// schedule is exhausted (count bound reached — including a degenerate
// zero-op budget — or the next arrival would land past the duration
// horizon).
func (s *openScheduler) next() (scheduledOp, bool) {
	if s.horizon <= 0 && s.i >= s.limit {
		return scheduledOp{}, false
	}
	due := s.arr.Next()
	if s.horizon > 0 && due >= s.horizon {
		return scheduledOp{}, false
	}
	p := s.gen.Next()
	p.FreshID = s.gen.NewOrderID(s.nonce, 0, s.i)
	op := scheduledOp{due: due, idx: pickMixIndex(s.gen, s.mix, s.totalWeight), p: p}
	s.i++
	return op, true
}

// expected returns a capacity hint for the dispatch queue: the exact
// op count in count mode, the mean arrival count plus generous
// headroom in duration mode (a Poisson process essentially never
// exceeds twice its mean, and the headroom covers tiny means).
func (s *openScheduler) expected(cfg DriverConfig) int {
	if s.limit > 0 {
		return s.limit
	}
	return int(cfg.RateOpsPerSec*cfg.Duration.Seconds()*2) + 4096
}

// drainDeadline bounds how long a duration-bounded run may keep
// working its backlog after the arrival horizon closes: half the run
// again, plus a constant floor so very short runs still get a useful
// drain window. Arrivals still queued at the deadline are dropped and
// counted — a saturated sweep step reports its backlog instead of
// serving it forever.
func drainDeadline(d time.Duration) time.Duration {
	return d + d/2 + 250*time.Millisecond
}

// runOpen executes the schedule open-loop: a dispatcher releases each
// operation into a queue at its scheduled arrival time (never earlier,
// and never throttled by busy workers), and cfg.Clients workers drain
// the queue. For every operation two latencies are recorded: service
// (execution start to completion) and intended (scheduled arrival to
// completion). When the engine cannot keep up with the offered rate
// the queue grows and intended latency inflates with the backlog — the
// tail the closed loop's coordinated omission hides. Duration-bounded
// runs additionally stop draining at drainDeadline and report the
// abandoned arrivals as dropped.
func runOpen(mix []MixItem, cfg DriverConfig, sched *openScheduler, recs []workerRecorder) (time.Duration, int64) {
	// The queue is buffered to the whole expected run, so the
	// dispatcher never blocks on a send: arrivals stay on schedule no
	// matter how far behind the workers fall.
	queue := make(chan scheduledOp, sched.expected(cfg))
	var deadline time.Time
	var dropped atomic.Int64
	start := time.Now()
	if sched.horizon > 0 {
		deadline = start.Add(drainDeadline(sched.horizon))
	}
	go func() {
		for {
			op, ok := sched.next()
			if !ok {
				break
			}
			if d := time.Until(start.Add(op.due)); d > 0 {
				time.Sleep(d)
			}
			queue <- op
		}
		close(queue)
	}()
	runClients(cfg.Clients, func(client int) {
		rec := &recs[client]
		for op := range queue {
			if !deadline.IsZero() && time.Now().After(deadline) {
				dropped.Add(1)
				continue
			}
			t0 := time.Now()
			err := mix[op.idx].Run(op.p)
			end := time.Now()
			rec.observe(op.idx, end.Sub(t0), end.Sub(start.Add(op.due)), true, err)
		}
	})
	elapsed := time.Since(start)
	// A duration-bounded run owns the whole arrival horizon: when the
	// last (random) arrival lands early and the backlog clears before
	// the horizon, the quiet tail is still part of the run — without
	// the clamp a short window under-counts elapsed and reports an
	// achieved rate above the offered one.
	if sched.horizon > 0 && elapsed < sched.horizon {
		elapsed = sched.horizon
	}
	return elapsed, dropped.Load()
}
