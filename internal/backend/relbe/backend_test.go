package relbe

import (
	"errors"
	"fmt"
	"testing"

	"udbench/internal/workload"
)

// buildPair loads one generated dataset into both the native unified
// engine and the relational backend, via the registry path real runs
// use.
func buildPair(t *testing.T, suiteName string, sf float64, seed uint64) (native, rel workload.Backend, info workload.Info) {
	t.Helper()
	suite, err := workload.ResolveSuite(suiteName)
	if err != nil {
		t.Fatal(err)
	}
	data := suite.Generate(sf, seed)
	build := func(name string) workload.Backend {
		spec, err := workload.ResolveBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		be, err := spec.New(data, workload.BackendOptions{})
		if err != nil {
			t.Fatalf("build %s backend: %v", name, err)
		}
		return be
	}
	return build("udbms"), build("relational"), data.Info()
}

// TestQueryAgreement pins the comparative contract on the t2 dataset:
// for every query the relational backend advertises, its cardinality
// must equal the unified engine's on every draw — across seeds and
// scale factors, and on draws built to come back empty.
func TestQueryAgreement(t *testing.T) {
	for _, sf := range []float64{0.05, 0.1} {
		for _, seed := range []uint64{1234, 99} {
			t.Run(fmt.Sprintf("sf%v/seed%d", sf, seed), func(t *testing.T) {
				native, rel, info := buildPair(t, "t2", sf, seed)
				queries := rel.Capabilities().Queries
				if len(queries) == 0 {
					t.Fatal("relational backend advertises no queries")
				}
				agree := func(p workload.Params) map[workload.QueryID]int {
					t.Helper()
					got := map[workload.QueryID]int{}
					for _, q := range queries {
						want, err := native.RunQuery(q, p)
						if err != nil {
							t.Fatalf("%s udbms: %v", q, err)
						}
						n, err := rel.RunQuery(q, p)
						if err != nil {
							t.Fatalf("%s relational: %v", q, err)
						}
						if n != want {
							t.Errorf("%s: udbms=%d relational=%d (params %+v)", q, want, n, p)
						}
						got[q] = n
					}
					return got
				}
				gen := workload.NewParamGen(info, seed+3, 0.5)
				nonEmpty := map[workload.QueryID]bool{}
				for trial := 0; trial < 20; trial++ {
					for q, n := range agree(gen.Next()) {
						nonEmpty[q] = nonEmpty[q] || n > 0
					}
				}
				for _, q := range queries {
					if !nonEmpty[q] {
						t.Errorf("%s returned 0 on all 20 draws: the agreement is vacuous", q)
					}
				}
				// Draws that must come back empty: an unknown customer, a
				// city nobody lives in, a threshold no sum clears.
				p := gen.Next()
				p.CustomerID = info.Customers + 1000
				p.City = "Atlantis"
				p.Threshold = 1e15
				got := agree(p)
				for _, q := range []workload.QueryID{workload.Q1, workload.Q4, workload.Q12} {
					if got[q] != 0 {
						t.Errorf("%s on the empty draw = %d, want 0", q, got[q])
					}
				}
				p = gen.Next()
				p.Threshold = 1e15 // a real city, nobody that rich
				if got := agree(p); got[workload.Q4] != 0 {
					t.Errorf("Q4 with an unreachable threshold = %d, want 0", got[workload.Q4])
				}
			})
		}
	}
}

// TestTenantsAgreement drives the tenants suite on both backends:
// read ops must agree on a fresh dataset, and after both apply the
// same write sequence the reads must still agree — including the
// consistency probe and the suite_stats deltas.
func TestTenantsAgreement(t *testing.T) {
	native, rel, info := buildPair(t, "tenants", 0.05, 7)
	readOps := []string{"t_lookup", "t_inbox", "t_count"}
	compareReads := func(label string, gen *workload.ParamGen, trials int) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			p := gen.Next()
			for _, op := range readOps {
				want, err := native.RunSuiteOp("tenants", op, p)
				if err != nil {
					t.Fatalf("%s %s udbms: %v", label, op, err)
				}
				got, err := rel.RunSuiteOp("tenants", op, p)
				if err != nil {
					t.Fatalf("%s %s relational: %v", label, op, err)
				}
				if got != want {
					t.Errorf("%s %s: udbms=%d relational=%d (params %+v)", label, op, want, got, p)
				}
			}
		}
	}
	compareReads("fresh", workload.NewParamGen(info, 7, 0.5), 8)

	nativeStats := native.Capabilities().SuiteStats
	relStats := rel.Capabilities().SuiteStats
	if nativeStats == nil || relStats == nil {
		t.Fatal("both backends must provide suite stats")
	}
	baseN, baseR := nativeStats.SuiteOpStats(), relStats.SuiteOpStats()

	// Identical write sequences: open a fresh ticket per trial, close a
	// generated one.
	gen := workload.NewParamGen(info, 21, 0.5)
	for trial := 0; trial < 6; trial++ {
		p := gen.Next()
		p.FreshID = fmt.Sprintf("agree-%d", trial)
		for _, op := range []string{"t_open", "t_close"} {
			want, err := native.RunSuiteOp("tenants", op, p)
			if err != nil {
				t.Fatalf("%s udbms: %v", op, err)
			}
			got, err := rel.RunSuiteOp("tenants", op, p)
			if err != nil {
				t.Fatalf("%s relational: %v", op, err)
			}
			if got != want {
				t.Errorf("%s: udbms=%d relational=%d", op, want, got)
			}
		}
	}
	compareReads("after-writes", workload.NewParamGen(info, 7, 0.5), 8)

	dn := nativeStats.SuiteOpStats().Delta(baseN)
	dr := relStats.SuiteOpStats().Delta(baseR)
	if dn != dr {
		t.Errorf("suite stats deltas diverge: udbms=%+v relational=%+v", dn, dr)
	}
}

// TestUnsupportedIsTypedAndTouchesNothing pins the capability
// contract: unsupported queries and suites fail with the typed
// sentinel before reading or writing anything — the suite-op counters
// and the data must be bit-identical before and after.
func TestUnsupportedIsTypedAndTouchesNothing(t *testing.T) {
	_, rel, info := buildPair(t, "tenants", 0.05, 7)
	gen := workload.NewParamGen(info, 5, 0.5)
	p := gen.Next()
	before, err := rel.RunSuiteOp("tenants", "t_inbox", p)
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := rel.Capabilities().SuiteStats.SuiteOpStats()

	if _, err := rel.RunQuery(workload.Q2, p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("Q2 err = %v, want workload.ErrUnsupported", err)
	}
	if _, err := rel.RunQuery(workload.Q9, p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("Q9 err = %v, want workload.ErrUnsupported", err)
	}
	if _, err := rel.RunSuiteOp("timeseries", "window", p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("timeseries op err = %v, want workload.ErrUnsupported", err)
	}
	if _, err := rel.RunSuiteOp("tenants", "no_such_op", p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("unknown op err = %v, want workload.ErrUnsupported", err)
	}

	if after, err := rel.RunSuiteOp("tenants", "t_inbox", p); err != nil || after != before {
		t.Errorf("inbox after unsupported attempts = %d, %v; want %d (data untouched)", after, err, before)
	}
	statsAfter := rel.Capabilities().SuiteStats.SuiteOpStats()
	// Only the two deliberate t_inbox reads may have counted.
	wantReads := statsBefore.Reads + 1
	if statsAfter.Reads != wantReads || statsAfter.Writes != statsBefore.Writes {
		t.Errorf("stats after = %+v, want reads=%d writes=%d (unsupported ops must not count)",
			statsAfter, wantReads, statsBefore.Writes)
	}
}

// TestRunMixOnRelationalBackend runs the full tenants mix through the
// unmodified driver, four concurrent clients on each backend: the
// relational leg must be error-free with suite telemetry and the
// partial-capability report attached, and — what a global mutex would
// give for free but MVCC has to earn — leave every tenant's counter
// consistent and the data in the state the unified engine reaches.
func TestRunMixOnRelationalBackend(t *testing.T) {
	native, rel, info := buildPair(t, "tenants", 0.05, 7)
	suite, err := workload.ResolveSuite("tenants")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DriverConfig{Clients: 4, OpsPerClient: 40, Theta: 0.7, Seed: 11, Suite: "tenants"}
	nativeStats, relStats := native.Capabilities().SuiteStats, rel.Capabilities().SuiteStats
	baseR := relStats.SuiteOpStats()

	// While the mix runs, a fifth client probes the hot tenants: a ticket
	// insert visible without its counter bump (or the reverse) is a
	// violation only snapshot reads over atomic commits rule out.
	stop, probed := make(chan struct{}), make(chan int64)
	go func() {
		var n int64
		for {
			select {
			case <-stop:
				probed <- n
				return
			default:
			}
			v, err := rel.RunSuiteOp("tenants", "t_count", workload.Params{CustomerID: 1 + int(n%3)})
			if err != nil || v != 0 {
				t.Errorf("mid-mix t_count on tenant %d = %d, %v; want 0 violations", 1+n%3, v, err)
			}
			n++
		}
	}()
	res := workload.RunMix(rel, info, suite.Mix(rel), cfg)
	close(stop)
	probes := <-probed
	mixR := relStats.SuiteOpStats().Delta(baseR)
	mixR.Reads -= probes
	if res.Errors != 0 || res.Aborts != 0 {
		t.Fatalf("tenants mix on relational: %d errors, %d aborts", res.Errors, res.Aborts)
	}
	if res.Ops != 160 {
		t.Fatalf("ops = %d, want 160", res.Ops)
	}
	if res.SuiteStats == nil || res.SuiteStats.Reads+res.SuiteStats.Writes == 0 {
		t.Fatalf("suite stats missing or empty: %+v", res.SuiteStats)
	}
	sum := res.Summary()
	if sum.BackendCapabilities == nil {
		t.Fatal("partial backend must attach backend_capabilities")
	}
	if !sum.BackendCapabilities.Transactions && len(sum.BackendCapabilities.Queries) == 0 {
		t.Error("capability report lists no queries")
	}
	if sum.Engine != "relational" {
		t.Errorf("summary engine = %q, want relational", sum.Engine)
	}

	// The same seed gives the unified engine the same per-client op
	// sequences. Read cardinalities seen *during* the runs depend on
	// the interleaving (an inbox read races the opens around it), so
	// the concurrent phase compares the op counts...
	nres := workload.RunMix(native, info, suite.Mix(native), cfg)
	if nres.Errors != 0 || nres.SuiteStats == nil {
		t.Fatalf("tenants mix on udbms: %d errors, stats %+v", nres.Errors, nres.SuiteStats)
	}
	if mixR.Reads != nres.SuiteStats.Reads || mixR.Writes != nres.SuiteStats.Writes {
		t.Errorf("mix op counts diverge: udbms=%+v relational=%+v (probe reads taken out)", *nres.SuiteStats, mixR)
	}
	// ...and the writes commute, so afterwards both hold the same
	// state: every read of every tenant agrees, no counter drifted from
	// its tickets, and the suite_stats deltas (rows included) match.
	baseN, baseR := nativeStats.SuiteOpStats(), relStats.SuiteOpStats()
	for tenant := 1; tenant <= info.Customers; tenant++ {
		p := workload.Params{CustomerID: tenant, OrderID: fmt.Sprintf("o%d", tenant)}
		for _, op := range []string{"t_lookup", "t_inbox", "t_count"} {
			want, err := native.RunSuiteOp("tenants", op, p)
			if err != nil {
				t.Fatalf("%s udbms: %v", op, err)
			}
			got, err := rel.RunSuiteOp("tenants", op, p)
			if err != nil {
				t.Fatalf("%s relational: %v", op, err)
			}
			if got != want {
				t.Errorf("tenant %d %s after the mix: udbms=%d relational=%d", tenant, op, want, got)
			}
			if op == "t_count" && got != 0 {
				t.Errorf("tenant %d: counter disagrees with its tickets after the concurrent mix", tenant)
			}
		}
	}
	if dn, dr := nativeStats.SuiteOpStats().Delta(baseN), relStats.SuiteOpStats().Delta(baseR); dn != dr {
		t.Errorf("suite stats deltas diverge: udbms=%+v relational=%+v", dn, dr)
	}
}

// TestStandardMixDegradesToQueries pins what the backend offers each
// registered suite. Every suite's dataset must load — the f5 sweep
// builds every backend before asking SupportsSuite, and a typed schema
// is stricter than the documents it is inferred from — and the suites
// outside the descriptor must yield an empty mix. On t2, without
// native transactions, the standard mix reduces to its supported query
// items instead of erroring.
func TestStandardMixDegradesToQueries(t *testing.T) {
	wantOps := map[string]int{"t2": 1, "tenants": 4}
	for _, name := range workload.SuiteNames() {
		t.Run(name, func(t *testing.T) {
			suite, err := workload.ResolveSuite(name)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := Open(suite.Generate(0.05, 1234))
			if err != nil {
				t.Fatalf("Open on the %s dataset: %v", name, err)
			}
			_, advertised := wantOps[name]
			if got := rel.Capabilities().SupportsSuite(name); got != advertised {
				t.Errorf("SupportsSuite(%s) = %v, want %v", name, got, advertised)
			}
			mix := suite.Mix(rel)
			if advertised && len(mix) != wantOps[name] {
				t.Fatalf("%s mix over relational has %d items, want %d", name, len(mix), wantOps[name])
			}
			if name != "t2" {
				return
			}
			if mix[0].Name != "Q1" {
				t.Fatalf("standard mix over relational = [%s], want [Q1] only", mix[0].Name)
			}
			if err := mix[0].Run(workload.Params{CustomerID: 1}); err != nil {
				t.Errorf("Q1 through relational failed: %v", err)
			}
		})
	}
}
