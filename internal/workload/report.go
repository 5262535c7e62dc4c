package workload

import (
	"sort"
	"time"

	"udbench/internal/metrics"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// OpSummary is the machine-readable digest of one operation class in a
// mix run. Durations are nanoseconds so the file diffs cleanly across
// runs.
type OpSummary struct {
	Name   string        `json:"name"`
	Count  int64         `json:"count"`
	MeanNS time.Duration `json:"mean_ns"`
	P50NS  time.Duration `json:"p50_ns"`
	P95NS  time.Duration `json:"p95_ns"`
	P99NS  time.Duration `json:"p99_ns"`
	MaxNS  time.Duration `json:"max_ns"`
	// Intended percentiles are per-op-class coordinated-omission-free
	// latency (scheduled arrival to completion); zero in closed-loop
	// runs, which have no arrival schedule. At saturation they show
	// which transaction class queues first.
	IntendedP50NS time.Duration `json:"intended_p50_ns"`
	IntendedP99NS time.Duration `json:"intended_p99_ns"`
}

// RunSummary is the machine-readable digest of one RunMix result,
// written by `udbench mix -json` so successive PRs can track a
// BENCH_*.json perf trajectory.
type RunSummary struct {
	Engine  string `json:"engine"`
	Mode    string `json:"mode"` // "closed" | "open"
	Clients int    `json:"clients"`
	Ops     int64  `json:"ops"`
	Errors  int64  `json:"errors"`
	Aborts  int64  `json:"aborts"`
	// Dropped counts arrivals a duration-bounded open-loop run
	// abandoned at its drain deadline (0 everywhere else).
	Dropped int64 `json:"dropped"`
	// RateOpsPerSec is the requested open-loop arrival rate (0 when
	// closed-loop); AchievedRate is the completion rate the run
	// sustained (equals Throughput).
	RateOpsPerSec float64       `json:"rate_ops_per_sec"`
	AchievedRate  float64       `json:"achieved_rate"`
	ElapsedNS     time.Duration `json:"elapsed_ns"`
	Throughput    float64       `json:"throughput_ops_per_sec"`
	P50NS         time.Duration `json:"p50_ns"`
	P95NS         time.Duration `json:"p95_ns"`
	P99NS         time.Duration `json:"p99_ns"`
	// Intended percentiles are coordinated-omission-free latency
	// (scheduled arrival to completion); zero in closed-loop runs,
	// which have no arrival schedule.
	IntendedP50NS time.Duration `json:"intended_p50_ns"`
	IntendedP95NS time.Duration `json:"intended_p95_ns"`
	IntendedP99NS time.Duration `json:"intended_p99_ns"`
	IntendedMaxNS time.Duration `json:"intended_max_ns"`
	PerOp         []OpSummary   `json:"per_op"`
	// LockStats is the engine's lock-table telemetry for this run
	// (acquires, waits, blocked time and deadlock victims); absent
	// for engines without a lock table.
	LockStats *txn.LockStats `json:"lock_stats,omitempty"`
	// Durability is the engine's write-ahead-log telemetry for this
	// run (fsync policy, group-commit batching, durable watermark,
	// seal state); absent for runs without a log attached.
	Durability *wal.Stats `json:"durability,omitempty"`
	// Admission is the server-side admission-control telemetry for this
	// run (bounded-queue high watermark, shed count, queue-wait p99);
	// absent for in-process engines, which have no queue in front.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// BackendCapabilities is the backend's capability descriptor;
	// present only for partial backends (external engines restricting
	// the model/query/transaction surface), so pre-existing
	// native-engine trajectories are untouched. Frozen: cross-engine
	// legs are only comparable after checking the capability sets
	// overlap.
	BackendCapabilities *BackendCaps `json:"backend_capabilities,omitempty"`
}

// BackendCaps is the frozen JSON form of a partial backend's
// capability descriptor (see Capabilities.Report).
type BackendCaps struct {
	Models       []string `json:"models"`
	Transactions bool     `json:"transactions"`
	Queries      []string `json:"queries"`
}

func opSummary(name string, d *metrics.DualHistogram) OpSummary {
	s := OpSummary{
		Name:   name,
		Count:  d.Service.Count(),
		MeanNS: d.Service.Mean(),
		P50NS:  d.Service.Percentile(50),
		P95NS:  d.Service.Percentile(95),
		P99NS:  d.Service.Percentile(99),
		MaxNS:  d.Service.Max(),
	}
	if d.Intended.Count() > 0 {
		s.IntendedP50NS = d.Intended.Percentile(50)
		s.IntendedP99NS = d.Intended.Percentile(99)
	}
	return s
}

// Summary converts a Result into its machine-readable form, with
// per-op entries sorted by name for stable output.
func (r Result) Summary() RunSummary {
	s := RunSummary{
		Engine:        r.Engine,
		Mode:          r.Mode.String(),
		Clients:       r.Clients,
		Ops:           r.Ops,
		Errors:        r.Errors,
		Aborts:        r.Aborts,
		Dropped:       r.Dropped,
		RateOpsPerSec: r.Rate.Offered,
		AchievedRate:  r.Rate.Achieved,
		ElapsedNS:     r.Elapsed,
		Throughput:    r.Throughput,
		P50NS:         r.Latency.Percentile(50),
		P95NS:         r.Latency.Percentile(95),
		P99NS:         r.Latency.Percentile(99),
		LockStats:     r.LockStats,
		Durability:    r.Durability,
		Admission:     r.Admission,

		BackendCapabilities: r.Capabilities,
	}
	if r.Intended != nil && r.Intended.Count() > 0 {
		s.IntendedP50NS = r.Intended.Percentile(50)
		s.IntendedP95NS = r.Intended.Percentile(95)
		s.IntendedP99NS = r.Intended.Percentile(99)
		s.IntendedMaxNS = r.Intended.Max()
	}
	names := make([]string, 0, len(r.PerOp))
	for name := range r.PerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.PerOp = append(s.PerOp, opSummary(name, r.PerOp[name]))
	}
	return s
}
