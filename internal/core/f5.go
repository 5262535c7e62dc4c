package core

import (
	"fmt"
	"strings"
	"time"

	"udbench/internal/backend/relbe"
	"udbench/internal/metrics"
	"udbench/internal/server"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// f5KneeThreshold is the saturation criterion: the first offered rate
// at which the achieved completion rate falls below this fraction of
// the offered rate is the engine's knee — beyond it the engine is no
// longer keeping up with the arrival schedule and intended latency
// grows with the backlog rather than with per-op cost.
const f5KneeThreshold = 0.9

// f5Row is one measured cell of the sweep: one engine at one offered
// rate. The typed form exists so tests (and future JSON consumers) can
// assert on the sweep without parsing rendered table strings.
type f5Row struct {
	Engine string
	// Ops names the mix items the leg ran, joined with "+": a partial
	// backend's degraded mix ("Q1") must not read as like-for-like
	// against the native one ("Q1+T1+T2+T3+T4").
	Ops       string
	Offered   float64
	Achieved  float64
	SvcP50    time.Duration
	SvcP99    time.Duration
	IntP50    time.Duration
	IntP99    time.Duration
	IntMax    time.Duration
	AbortRate float64 // aborts / completed ops
	Aborts    int64
	Errors    int64
	LockWait  time.Duration
	Dropped   int64
	Shed      int64 // requests rejected by server admission control (remote engines only)
	Saturated bool  // achieved/offered < f5KneeThreshold
	// Durability is the run's write-ahead-log telemetry delta; nil for
	// engines without a log (all of f5, the baseline rows of f6).
	Durability *wal.Stats
}

// f5Config sizes the rate ladder.
type f5Config struct {
	baseRate float64       // first rung of the geometric ladder
	factor   float64       // ladder growth per rung
	maxSteps int           // rung cap per engine (safety bound)
	clients  int           // open-loop worker pool
	theta    float64       // Zipf skew of parameter selection
	warmup   time.Duration // unmeasured run before each measured rung
	measure  time.Duration // measured run length per rung
}

func f5ConfigFor(cfg Config) f5Config {
	if cfg.Quick {
		return f5Config{baseRate: 100, factor: 4, maxSteps: 6, clients: 4, theta: 0.5,
			warmup: 100 * time.Millisecond, measure: 400 * time.Millisecond}
	}
	return f5Config{baseRate: 250, factor: 2, maxSteps: 10, clients: 8, theta: 0.5,
		warmup: time.Second, measure: 3 * time.Second}
}

// sweepEngine is one system under test in a rate sweep: the backend and
// the label its rows carry (an engine name for f5, a fsync policy for
// f6's durable variants). The sweep only needs the core Backend
// contract — partial backends ride the same ladder with whatever subset
// of the standard mix their capabilities grant them.
type sweepEngine struct {
	label string
	e     workload.Backend
}

// rateSweep drives the standard mix open-loop at a geometric ladder of
// offered rates against each engine. Per rung it runs an unmeasured
// warm-up (populating caches and the freshly counted lock telemetry is
// delta-scoped per run anyway), then one duration-bounded measured run,
// and climbs until the achieved rate drops below f5KneeThreshold of
// the offered rate — the knee — or the ladder cap is hit. The knee
// rung itself is kept (it is the most interesting row: intended
// latency there is backlog, not service), so each engine's sweep ends
// with at most one saturated row.
func rateSweep(p f5Config, info workload.Info, seed uint64, engines []sweepEngine) []f5Row {
	var rows []f5Row
	for _, se := range engines {
		e := se.e
		mix := workload.StandardMix(e)
		names := make([]string, len(mix))
		for i, item := range mix {
			names[i] = item.Name
		}
		ops := strings.Join(names, "+")
		rate := p.baseRate
		for step := 0; step < p.maxSteps; step++ {
			dc := workload.DriverConfig{
				Clients: p.clients, Theta: p.theta, Seed: seed,
				Mode: workload.ModeOpen, RateOpsPerSec: rate,
				Arrival: workload.ArrivalPoisson, Duration: p.measure,
			}
			warm := dc
			warm.Duration = p.warmup
			workload.RunMix(e, info, mix, warm)
			res := workload.RunMix(e, info, mix, dc)
			row := f5Row{
				Engine:     se.label,
				Ops:        ops,
				Offered:    rate,
				Achieved:   res.Rate.Achieved,
				SvcP50:     res.Latency.Percentile(50),
				SvcP99:     res.Latency.Percentile(99),
				IntP50:     res.Intended.Percentile(50),
				IntP99:     res.Intended.Percentile(99),
				IntMax:     res.Intended.Max(),
				Aborts:     res.Aborts,
				Errors:     res.Errors,
				Dropped:    res.Dropped,
				Saturated:  res.Rate.Achievement() < f5KneeThreshold,
				Durability: res.Durability,
			}
			if res.Ops > 0 {
				row.AbortRate = float64(res.Aborts) / float64(res.Ops)
			}
			if res.LockStats != nil {
				row.LockWait = res.LockStats.WaitNS
			}
			if res.Admission != nil {
				row.Shed = res.Admission.Shed
			}
			rows = append(rows, row)
			if row.Saturated {
				break
			}
			rate *= p.factor
		}
	}
	return rows
}

// sweepLabels lists the distinct engine labels of a sweep in first-
// appearance order, so the knee digest covers remote engines (or f6's
// policy variants) without a hardcoded label list.
func sweepLabels(rows []f5Row) []string {
	var labels []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Engine] {
			seen[r.Engine] = true
			labels = append(labels, r.Engine)
		}
	}
	return labels
}

// kneeDigest is one engine's sweep in brief.
type kneeDigest struct {
	// at is the saturated knee rung — or, when the ladder never
	// saturated, its top rung, reported as a capacity lower bound.
	at *f5Row
	// rate is the knee's offered rate ("> top" without a knee).
	rate any
	// best is the last unsaturated rung (the knee rung itself when even
	// the first rung saturated): the engine's demonstrated capacity.
	best *f5Row
}

// kneeOf digests one engine's sweep rows; ok is false when it has none.
func kneeOf(rows []f5Row, label string) (d kneeDigest, ok bool) {
	for i := range rows {
		if rows[i].Engine != label {
			continue
		}
		d.at = &rows[i]
		if d.at.Saturated {
			d.rate = d.at.Offered
			break
		}
		d.best, d.rate = d.at, fmt.Sprintf("> %.0f", d.at.Offered)
	}
	if d.best == nil {
		d.best = d.at
	}
	return d, d.at != nil
}

// f5Sweep runs the rate ladder over the two baseline engines and the
// relational comparative backend (on the Q1 share of the standard mix
// its capabilities allow) — plus, when cfg.Remote names a `udbench
// serve` address, the same sweep over the wire, so the artifact carries
// the in-process, comparative, and remote knees side by side. The
// ladder is a parameter so tests can assert the sweep's shape on a
// short one.
func f5Sweep(cfg Config, p f5Config) ([]f5Row, error) {
	tb, err := newTestbed(cfg.SF, cfg.Seed, cfg.HopLatency)
	if err != nil {
		return nil, err
	}
	rel, err := relbe.Open(tb.ds)
	if err != nil {
		return nil, err
	}
	engines := []sweepEngine{{tb.uni.Name(), tb.uni}, {tb.fed.Name(), tb.fed}, {rel.Name(), rel}}
	if cfg.Remote != "" {
		re, err := server.DialEngine(cfg.Remote, p.clients)
		if err != nil {
			return nil, err
		}
		defer re.Close()
		// A remote knee is only comparable to the local ones if the
		// server fronts the same dataset; the cardinalities are the
		// proxy the protocol exposes.
		if re.Info() != tb.info {
			return nil, fmt.Errorf("f5: remote dataset %+v != local %+v (serve with matching -sf/-seed)",
				re.Info(), tb.info)
		}
		engines = append(engines, sweepEngine{re.Name(), re})
	}
	return rateSweep(p, tb.info, cfg.Seed, engines), nil
}

// runF5 is the latency-vs-offered-rate experiment: the classic
// throughput/intended-p99 knee curve per engine, measured open-loop so
// the tail includes queueing delay (coordinated-omission-free). The
// second table digests the sweep into each engine's knee rate and the
// capacity it sustained just below it.
func runF5(cfg Config) ([]*metrics.Table, error) {
	p := f5ConfigFor(cfg)
	rows, err := f5Sweep(cfg, p)
	if err != nil {
		return nil, err
	}
	return f5Tables(cfg, p, rows), nil
}

// f5Tables renders a sweep: every rung, then the knee digest.
func f5Tables(cfg Config, p f5Config, rows []f5Row) []*metrics.Table {
	sweep := metrics.NewTable(
		fmt.Sprintf("F5: latency vs offered rate (open loop, %v per rate, x%g ladder), SF %g",
			p.measure, p.factor, cfg.SF),
		"engine", "ops", "offered", "achieved", "ach%", "svc p50", "svc p99",
		"int p50", "int p99", "int max", "abort%", "lock wait", "dropped", "shed")
	for _, r := range rows {
		sweep.AddRow(r.Engine, r.Ops, r.Offered, r.Achieved,
			fmt.Sprintf("%.0f%%", 100*r.Achieved/r.Offered),
			r.SvcP50, r.SvcP99, r.IntP50, r.IntP99, r.IntMax,
			fmt.Sprintf("%.1f%%", 100*r.AbortRate), r.LockWait, r.Dropped, r.Shed)
	}
	knee := metrics.NewTable(
		fmt.Sprintf("F5: saturation knee (first offered rate with achieved/offered < %.0f%%)",
			100*f5KneeThreshold),
		"engine", "ops", "knee ops/s", "capacity ops/s", "int p99 @ knee", "svc p99 @ knee", "int/svc")
	for _, eng := range sweepLabels(rows) {
		if d, ok := kneeOf(rows, eng); ok {
			knee.AddRow(eng, d.at.Ops, d.rate, d.best.Achieved, d.at.IntP99, d.at.SvcP99,
				ratio(d.at.SvcP99, d.at.IntP99))
		}
	}
	return []*metrics.Table{sweep, knee}
}
