package workload

import (
	"encoding/json"
	"sort"
	"testing"

	"udbench/internal/txn"
	"udbench/internal/wal"
)

// goldenSummaryFields is the frozen `udbench mix -json` per-result
// schema. Every key path marshalled from RunSummary must appear here
// and vice versa; array elements are flattened as "field[]". If this
// test fails you either dropped a field consumers of the BENCH_*.json
// trajectory rely on, or added one — update this list AND the schema
// table in docs/BENCHMARKING.md together.
var goldenSummaryFields = []string{
	"aborts",
	"achieved_rate",
	"admission.queue_depth_max",
	"admission.queue_wait_p99_ns",
	"admission.shed",
	"backend_capabilities.models[]",
	"backend_capabilities.queries[]",
	"backend_capabilities.transactions",
	"clients",
	"dropped",
	"durability.appends",
	"durability.batches",
	"durability.bytes",
	"durability.durable_ts",
	"durability.fsyncs",
	"durability.ops_logged",
	"durability.policy",
	"durability.sealed",
	"elapsed_ns",
	"engine",
	"errors",
	"intended_max_ns",
	"intended_p50_ns",
	"intended_p95_ns",
	"intended_p99_ns",
	"lock_stats.acquires",
	"lock_stats.detector.victims",
	"lock_stats.wait_ns",
	"lock_stats.waits",
	"mode",
	"ops",
	"p50_ns",
	"p95_ns",
	"p99_ns",
	"per_op[].count",
	"per_op[].intended_p50_ns",
	"per_op[].intended_p99_ns",
	"per_op[].max_ns",
	"per_op[].mean_ns",
	"per_op[].name",
	"per_op[].p50_ns",
	"per_op[].p95_ns",
	"per_op[].p99_ns",
	"rate_ops_per_sec",
	"throughput_ops_per_sec",
}

// collectKeyPaths flattens a decoded JSON value into sorted key paths.
func collectKeyPaths(prefix string, v any, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			collectKeyPaths(p, child, out)
		}
	case []any:
		for _, child := range t {
			collectKeyPaths(prefix+"[]", child, out)
		}
	default:
		out[prefix] = true
	}
}

// TestRunSummaryGoldenFields marshals a fully populated RunSummary and
// pins the exact set of JSON key paths, so report fields cannot
// silently disappear (or appear undocumented).
func TestRunSummaryGoldenFields(t *testing.T) {
	info := Info{Customers: 50, Products: 20, Orders: 80}
	mix := []MixItem{{Name: "A", Weight: 1, Run: func(Params) error { return nil }}}
	res := RunMix(nil, info, mix, DriverConfig{
		Clients: 2, OpsPerClient: 30, Seed: 3, Mode: ModeOpen, RateOpsPerSec: 20000,
	})
	s := res.Summary()
	// A synthetic mix has no lock table; populate the telemetry branch
	// so its nested keys are part of the pinned schema.
	s.LockStats = &txn.LockStats{Acquires: 2, Waits: 1, WaitNS: 3}
	// Same for the durability block: synthetic mixes have no log, so
	// populate it by hand to pin its nested keys.
	s.Durability = &wal.Stats{Policy: "group", Appends: 1, OpsLogged: 2, Batches: 1, Fsyncs: 1, Bytes: 64}
	// And the admission block: synthetic mixes run in-process with no
	// server queue in front, so populate it by hand to pin its keys.
	s.Admission = &AdmissionStats{QueueDepthMax: 3, Shed: 2, QueueWaitP99NS: 1000}
	// And the capability block: only partial backends attach it, so
	// populate it by hand to pin its keys.
	s.BackendCapabilities = &BackendCaps{
		Models:       []string{"relational"},
		Transactions: false,
		Queries:      []string{"Q1"},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	collectKeyPaths("", decoded, got)
	gotList := make([]string, 0, len(got))
	for k := range got {
		gotList = append(gotList, k)
	}
	sort.Strings(gotList)

	want := map[string]bool{}
	for _, k := range goldenSummaryFields {
		want[k] = true
	}
	for _, k := range gotList {
		if !want[k] {
			t.Errorf("new JSON field %q: add it to goldenSummaryFields and document it in docs/BENCHMARKING.md", k)
		}
	}
	for _, k := range goldenSummaryFields {
		if !got[k] {
			t.Errorf("JSON field %q disappeared from the mix report schema", k)
		}
	}
}

// TestRunSummaryModes pins the mode-dependent summary fields: open
// runs report their offered rate and intended percentiles, closed runs
// zero them (no schedule exists to measure against), and both report
// achieved_rate = throughput.
func TestRunSummaryModes(t *testing.T) {
	info := Info{Customers: 50, Products: 20, Orders: 80}
	mix := []MixItem{{Name: "A", Weight: 1, Run: func(Params) error { return nil }}}

	closed := RunMix(nil, info, mix, DriverConfig{Clients: 2, OpsPerClient: 30, Seed: 3}).Summary()
	if closed.Mode != "closed" || closed.RateOpsPerSec != 0 {
		t.Errorf("closed summary mode/rate = %q/%g, want closed/0", closed.Mode, closed.RateOpsPerSec)
	}
	if closed.IntendedP50NS != 0 || closed.IntendedP99NS != 0 || closed.IntendedMaxNS != 0 {
		t.Errorf("closed summary has intended percentiles: %+v", closed)
	}
	if closed.AchievedRate != closed.Throughput {
		t.Errorf("closed achieved_rate %g != throughput %g", closed.AchievedRate, closed.Throughput)
	}

	open := RunMix(nil, info, mix, DriverConfig{
		Clients: 2, OpsPerClient: 30, Seed: 3, Mode: ModeOpen, RateOpsPerSec: 20000,
	}).Summary()
	if open.Mode != "open" || open.RateOpsPerSec != 20000 {
		t.Errorf("open summary mode/rate = %q/%g, want open/20000", open.Mode, open.RateOpsPerSec)
	}
	if open.IntendedP99NS <= 0 || open.IntendedMaxNS < open.IntendedP99NS {
		t.Errorf("open summary intended percentiles malformed: p99=%v max=%v",
			open.IntendedP99NS, open.IntendedMaxNS)
	}
	if open.AchievedRate != open.Throughput {
		t.Errorf("open achieved_rate %g != throughput %g", open.AchievedRate, open.Throughput)
	}
}

// TestEngineLockStatsReachReport verifies the telemetry plumbing end to
// end at the driver level: an engine that provides LockStats gets a
// run-scoped (delta) snapshot attached to the Result and Summary.
func TestEngineLockStatsReachReport(t *testing.T) {
	mgr := txn.NewManager()
	e := lockingEngine{mgr: mgr}
	// Pre-run traffic that must NOT appear in the run's delta.
	for i := 0; i < 7; i++ {
		tx := mgr.Begin()
		if err := tx.LockExclusive("warmup"); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	info := Info{Customers: 50, Products: 20, Orders: 80}
	mix := []MixItem{{Name: "W", Weight: 1, Run: e.lockOnce}}
	res := RunMix(e, info, mix, DriverConfig{Clients: 2, OpsPerClient: 25, Seed: 3})
	if res.LockStats == nil {
		t.Fatal("engine provides LockStats but Result.LockStats is nil")
	}
	if got := res.LockStats.Acquires; got != 50 {
		t.Errorf("run delta acquires = %d, want 50 (one per op, warmup excluded)", got)
	}
	s := res.Summary()
	if s.LockStats == nil || s.LockStats.Acquires != 50 {
		t.Errorf("summary lock_stats = %+v, want the run delta", s.LockStats)
	}
}

// lockingEngine is a minimal Engine + LockStatsProvider whose single
// operation takes one exclusive lock; its capability descriptor is
// what routes the provider to the driver.
type lockingEngine struct {
	nopEngine
	mgr *txn.Manager
}

func (e lockingEngine) Capabilities() Capabilities {
	c := FullCapabilities()
	c.LockStats = e
	return c
}

func (e lockingEngine) LockStats() txn.LockStats { return e.mgr.LockStats() }

func (e lockingEngine) lockOnce(p Params) error {
	tx := e.mgr.Begin()
	if err := tx.LockExclusive("rec-" + p.OrderID); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}
