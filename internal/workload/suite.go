package workload

import (
	"fmt"

	"udbench/internal/datagen"
	"udbench/internal/relational"
)

// SuiteData is a generated dataset a suite knows how to materialize
// into either engine's stores. Implementations wrap the datagen types
// so the workload layer never depends on one concrete dataset shape.
type SuiteData interface {
	// Load copies the dataset into the target stores, in transactions
	// of txn.BulkBatch records.
	Load(t datagen.Target) error
	// Info exposes the cardinalities the parameter generator draws
	// from. Every field must be >= 1 (the Zipf generators reject empty
	// domains).
	Info() Info
}

// SuiteOp describes one operation class of a suite.
type SuiteOp struct {
	// Name labels the operation in mixes and reports ("append", ...).
	Name string
	// Weight is the op's relative frequency in the suite's default mix.
	// Weight 0 marks a consistency probe: excluded from the mix, run
	// explicitly by tests and probes (Backend.RunSuiteOp).
	Weight int
	// Write marks ops that mutate state; the engines wrap them in a
	// read-write transaction (unified ACID / federated 2PC) instead of
	// a read snapshot.
	Write bool
	// Body executes the op against the stores through a session — the
	// same shared-body idiom as the T2 queries, so one implementation
	// serves both engines. It returns a result cardinality. Nil for
	// suites (t2) whose ops run through native Engine entry points.
	Body func(st datagen.Target, s session, p Params) (int, error)
}

// Suite is one registered workload suite: a named data shape plus the
// operation set and default mix that drive it. Every suite flows
// through the same open-loop driver, f5 sweep, remote protocol, and
// JSON schema; suites are separate benchmark trajectories and are
// never compared against each other.
type Suite struct {
	// Name is the registry key ("t2", "timeseries", ...).
	Name string
	// Description is the one-line summary `udbench suites` prints.
	Description string
	// Generate materializes the suite's dataset at a scale factor.
	Generate func(sf float64, seed uint64) SuiteData
	// Ops lists the suite's operation classes. Weight-0 entries are
	// consistency probes.
	Ops []SuiteOp
	// mixFor, when set, overrides the default RunSuiteOp-based mix
	// builder. The t2 suite uses it to keep driving the engines'
	// native entry points (including the unified pipeline-query path),
	// so the refactor cannot shift its numbers.
	mixFor func(b Backend) []MixItem
}

// SuiteStats counts suite-op executions on an engine: reads, writes,
// and the total result cardinality they returned. Monotonic; RunMix
// snapshots it around a run and reports the delta.
type SuiteStats struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Rows   int64 `json:"rows"`
}

// Delta returns the run-scoped difference.
func (s SuiteStats) Delta(base SuiteStats) SuiteStats {
	s.Reads -= base.Reads
	s.Writes -= base.Writes
	s.Rows -= base.Rows
	return s
}

// SuiteStatsProvider is implemented by engines that count suite-op
// executions; RunMix snapshots the counters around the run and reports
// the delta when any suite ops actually ran.
type SuiteStatsProvider interface {
	SuiteOpStats() SuiteStats
}

var suites = registry[*Suite]{kind: "suite"}

// RegisterSuite adds a suite to the registry. Duplicate or anonymous
// registrations panic: they are programming errors in an init path.
func RegisterSuite(s *Suite) { suites.add(s.Name, s) }

// SuiteNames lists the registered suite names sorted.
func SuiteNames() []string { return suites.names() }

// SuiteByName looks a suite up.
func SuiteByName(name string) (*Suite, bool) { return suites.get(name) }

// DefaultSuite is the suite an empty -suite flag resolves to: the
// original TPC-C-ish T2 mix, so every pre-suite artifact stays on the
// same trajectory.
const DefaultSuite = "t2"

// ResolveSuite maps a -suite flag value to its suite: "" means the
// default, and an unknown name errors listing what is registered.
func ResolveSuite(name string) (*Suite, error) { return suites.resolve(name, DefaultSuite) }

// Op looks an operation up by name.
func (s *Suite) Op(name string) (SuiteOp, bool) {
	for _, op := range s.Ops {
		if op.Name == name {
			return op, true
		}
	}
	return SuiteOp{}, false
}

// Probes lists the suite's consistency probes (weight-0 ops).
func (s *Suite) Probes() []SuiteOp {
	var probes []SuiteOp
	for _, op := range s.Ops {
		if op.Weight == 0 {
			probes = append(probes, op)
		}
	}
	return probes
}

// Mix builds the suite's default weighted mix over a backend. Suites
// with a native mix (t2) delegate to it; all others dispatch through
// the backend's RunSuiteOp, which is part of the core contract — a
// backend that cannot execute the suite returns ErrUnsupported per op.
func (s *Suite) Mix(b Backend) []MixItem {
	if s.mixFor != nil {
		return s.mixFor(b)
	}
	var items []MixItem
	for _, op := range s.Ops {
		if op.Weight <= 0 {
			continue // consistency probes stay out of the mix
		}
		items = append(items, MixItem{
			Name:   op.Name,
			Weight: op.Weight,
			Run: func(p Params) error {
				_, err := b.RunSuiteOp(s.Name, op.Name, p)
				return err
			},
		})
	}
	return items
}

// suiteOpBody resolves a (suite, op) pair to its shared body — the
// native engine's RunSuiteOp dispatch. Native-mix ops (nil Body) are not
// runnable through this path.
func suiteOpBody(suite, op string) (SuiteOp, error) {
	s, err := suites.resolve(suite, "")
	if err != nil {
		return SuiteOp{}, err
	}
	so, ok := s.Op(op)
	if !ok {
		return SuiteOp{}, fmt.Errorf("workload: suite %s has no op %q", suite, op)
	}
	if so.Body == nil {
		return SuiteOp{}, fmt.Errorf("workload: suite %s op %s runs through native engine entry points", suite, op)
	}
	return so, nil
}

// The t2 suite is the original benchmark: the TPC-C-ish multi-model
// OLTP mix (50% Q1 customer profiles, 20% T1 order updates, 15% T2 new
// orders, 10% T3 feedback writes, 5% T4 snapshot reads) over the
// paper's Figure-1 dataset. It keeps its native mix so the pre-suite
// perf trajectory is unbroken.
func init() {
	RegisterSuite(&Suite{
		Name:        "t2",
		Description: "TPC-C-ish multi-model OLTP mix (Q1 + T1-T4) over the Figure 1 dataset",
		Generate: func(sf float64, seed uint64) SuiteData {
			ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
			return dataset{ds, InfoOf(ds)}
		},
		Ops: []SuiteOp{
			{Name: "Q1", Weight: 50},
			{Name: "T1", Weight: 20, Write: true},
			{Name: "T2", Weight: 15, Write: true},
			{Name: "T3", Weight: 10, Write: true},
			{Name: "T4", Weight: 5},
		},
		mixFor: StandardMix,
	})
}

// dataset is the SuiteData of every built-in suite: a generated datagen
// dataset (they all load into a Target) plus the cardinalities the
// suite's parameter draws range over.
type dataset struct {
	loader interface{ Load(datagen.Target) error }
	info   Info
}

func (d dataset) Load(t datagen.Target) error { return d.loader.Load(t) }
func (d dataset) Info() Info                  { return d.info }

// tableOf fetches one of the suite's relational tables, or says which
// dataset is missing.
func tableOf(st datagen.Target, name string) (*relational.Table, error) {
	t, ok := st.Relational.Table(name)
	if !ok {
		return nil, fmt.Errorf("workload: %s table missing (dataset not loaded?)", name)
	}
	return t, nil
}
