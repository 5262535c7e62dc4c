// Package core is the UDBench experiment harness — the paper's
// benchmark itself. It lists one experiment per table/figure of
// the reproduction (see DESIGN.md §4), knows how to provision the
// systems under test (the unified engine and the polyglot federation),
// runs parameter sweeps and renders result tables.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/metrics"
	"udbench/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// SF is the dataset scale factor for single-scale experiments.
	SF float64
	// Seed drives all deterministic generators.
	Seed uint64
	// Quick shrinks sweeps and iteration counts so the whole suite
	// runs in seconds (used by tests and -quick CLI runs).
	Quick bool
	// HopLatency is the federation's simulated per-request network
	// delay.
	HopLatency time.Duration
	// Remote, when set to a `udbench serve` address, adds a remote
	// system under test to the experiments that support one (f5): the
	// same sweep runs over the wire, so the in-process and remote
	// knees land side by side in one artifact. The server must front a
	// dataset with the same cardinalities (same -sf/-seed).
	Remote string
}

// DefaultConfig returns the reference configuration.
func DefaultConfig() Config {
	return Config{SF: 0.2, Seed: 42, HopLatency: 100 * time.Microsecond}
}

// Experiment is one table/figure reproduction.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md ("f1", "t2", ...).
	ID string
	// Name is the human-readable title.
	Name string
	// Pillar names the benchmark pillar the experiment exercises.
	Pillar string
	// Run executes the experiment and returns its result tables.
	Run func(cfg Config) ([]*metrics.Table, error)
}

// experiments lists every experiment once, in ID order.
var experiments = []Experiment{
	{ID: "a1", Name: "Ablation: standard secondary indexes",
		Pillar: "multi-model data", Run: runA1},
	{ID: "f1", Name: "Dataset statistics (Figure 1 reproduction)",
		Pillar: "multi-model data", Run: runF1},
	{ID: "f2", Name: "Throughput vs clients (mixed workload)",
		Pillar: "multi-model transactions", Run: runF2},
	{ID: "f3", Name: "Transaction abort rate vs contention",
		Pillar: "multi-model transactions", Run: runF3},
	{ID: "f4", Name: "Query latency scale-up",
		Pillar: "multi-model data", Run: runF4},
	{ID: "f5", Name: "Latency vs offered rate (open-loop saturation knee)",
		Pillar: "multi-model transactions", Run: runF5},
	{ID: "f6", Name: "Durability: recovery time vs log size, fsync-policy knee",
		Pillar: "durability", Run: runF6},
	{ID: "t2", Name: "Multi-model query latency Q1-Q13",
		Pillar: "multi-model data", Run: runT2},
	{ID: "t3", Name: "Consistency metrics: strong vs eventual",
		Pillar: "consistency", Run: runT3},
	{ID: "t4", Name: "Schema evolution vs historical queries",
		Pillar: "schema evolution", Run: runT4},
	{ID: "t5", Name: "Model conversion fidelity and throughput",
		Pillar: "data conversion", Run: runT5},
}

// Experiments returns every experiment in ID order.
func Experiments() []Experiment { return slices.Clone(experiments) }

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	i := slices.IndexFunc(experiments, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		return Experiment{}, false
	}
	return experiments[i], true
}

// RunAll executes every experiment and returns the tables in ID order.
func RunAll(cfg Config) ([]*metrics.Table, error) {
	var out []*metrics.Table
	for _, e := range experiments {
		tables, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}

// testbed provisions both native systems under test with the same
// dataset, built through NewBackend like every other backend.
type testbed struct {
	info     workload.Info
	uni, fed workload.Engine
	// ds is the dataset the testbed was loaded from, retained so
	// comparative backends can be provisioned with the exact same data.
	ds *datagen.Dataset
}

// newTestbed generates the paper's Figure-1 dataset and loads it into a
// fresh unified engine and a fresh federation.
func newTestbed(sf float64, seed uint64, hop time.Duration) (*testbed, error) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
	uni, err := NewBackend("udbms", ds, hop)
	if err != nil {
		return nil, err
	}
	fed, err := NewBackend("federation", ds, hop)
	if err != nil {
		return nil, err
	}
	return &testbed{info: workload.InfoOf(ds), uni: uni.(workload.Engine), fed: fed.(workload.Engine), ds: ds}, nil
}

// medianOf runs fn k times and returns the median duration.
func medianOf(k int, fn func() error) (time.Duration, error) {
	if k < 1 {
		k = 1
	}
	times := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func ratio(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return float64(b) / float64(a)
}
