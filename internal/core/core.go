// Package core is the UDBench experiment harness — the paper's
// benchmark itself. It registers one experiment per table/figure of
// the reproduction (see DESIGN.md §4), knows how to provision the
// systems under test (the unified engine and the polyglot federation),
// runs parameter sweeps and renders result tables.
package core

import (
	"fmt"
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

// QuickConfig returns a configuration sized for CI runs.
func QuickConfig() Config {
	return Config{SF: 0.03, Seed: 42, Quick: true, HopLatency: 20 * time.Microsecond}
}

// Experiment is one registered table/figure reproduction.
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

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// RunAll executes every experiment and returns the tables in ID order.
func RunAll(cfg Config) ([]*metrics.Table, error) {
	var out []*metrics.Table
	for _, e := range Experiments() {
		tables, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}

// testbed provisions both native systems under test with the same
// dataset, built through the backend registry like every other
// backend.
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
	opt := workload.BackendOptions{HopLatency: hop}
	uni, err := workload.NewBackend("udbms", ds, opt)
	if err != nil {
		return nil, err
	}
	fed, err := workload.NewBackend("federation", ds, opt)
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
