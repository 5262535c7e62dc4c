package workload

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"udbench/internal/federation"
	"udbench/internal/udbms"
)

// newSuites are the registry suites this PR ships beyond t2; every
// table-driven suite test covers all of them.
var newSuites = []string{"timeseries", "tenants", "logs"}

func TestSuiteRegistry(t *testing.T) {
	names := SuiteNames()
	for _, want := range append([]string{"t2"}, newSuites...) {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("suite %q not registered (have %v)", want, names)
		}
	}
	if s, err := ResolveSuite(""); err != nil || s.Name != DefaultSuite {
		t.Errorf("ResolveSuite(\"\") = %v, %v; want the %s suite", s, err, DefaultSuite)
	}
	_, err := ResolveSuite("no-such-suite")
	if err == nil {
		t.Fatal("unknown suite resolved")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-suite error %q does not list registered suite %q", err, n)
		}
	}
	for _, name := range names {
		s, ok := SuiteByName(name)
		if !ok {
			t.Fatalf("SuiteByName(%q) missing", name)
		}
		if s.Description == "" || s.Generate == nil || len(s.Ops) == 0 {
			t.Errorf("suite %s incompletely registered: %+v", name, s)
		}
	}
	// Every new suite carries at least one consistency probe and builds
	// its weighted ops from shared bodies (Body != nil).
	for _, name := range newSuites {
		s, _ := SuiteByName(name)
		if len(s.Probes()) == 0 {
			t.Errorf("suite %s has no consistency probe", name)
		}
		for _, op := range s.Ops {
			if op.Body == nil {
				t.Errorf("suite %s op %s has no shared body", name, op.Name)
			}
		}
	}
}

// recordingExecutor is a nopEngine whose RunSuiteOp records every
// dispatched (op, params) per client — the suite-level analogue of
// traceMix, with the client index recovered from FreshID.
type recordingExecutor struct {
	nopEngine
	t      *testing.T
	mu     sync.Mutex
	traces [][]string
}

func (e *recordingExecutor) RunSuiteOp(suite, op string, p Params) (int, error) {
	parts := strings.Split(p.FreshID, "-")
	if len(parts) != 5 {
		e.t.Fatalf("unexpected FreshID %q", p.FreshID)
	}
	client, err := strconv.Atoi(parts[3])
	if err != nil || client < 0 || client >= len(e.traces) {
		e.t.Fatalf("bad client in FreshID %q", p.FreshID)
	}
	e.mu.Lock()
	e.traces[client] = append(e.traces[client],
		op+"|"+strconv.Itoa(p.CustomerID)+"|"+p.OrderID+"|"+strconv.Itoa(p.Rating)+"|"+strconv.Itoa(p.TopN))
	e.mu.Unlock()
	return 0, nil
}

// TestSuiteMixDeterminism verifies, for every new suite, that two runs
// of the suite's default mix with the same seed dispatch identical
// per-client op sequences (names and parameters), and that a different
// seed diverges.
func TestSuiteMixDeterminism(t *testing.T) {
	info := Info{Customers: 120, Products: 120, Orders: 900}
	for _, name := range newSuites {
		name := name
		t.Run(name, func(t *testing.T) {
			suite, _ := SuiteByName(name)
			run := func(seed uint64) [][]string {
				e := &recordingExecutor{t: t, traces: make([][]string, 4)}
				RunMix(e, info, suite.Mix(e), DriverConfig{
					Clients: 4, OpsPerClient: 150, Theta: 0.7, Seed: seed, Suite: name,
				})
				return e.traces
			}
			a, b := run(42), run(42)
			for c := range a {
				if len(a[c]) != 150 {
					t.Fatalf("client %d dispatched %d ops, want 150", c, len(a[c]))
				}
				for i := range a[c] {
					if a[c][i] != b[c][i] {
						t.Fatalf("client %d op %d differs between same-seed runs:\n  %s\n  %s",
							c, i, a[c][i], b[c][i])
					}
				}
			}
			d := run(43)
			same := true
			for c := range a {
				for i := range a[c] {
					if a[c][i] != d[c][i] {
						same = false
					}
				}
			}
			if same {
				t.Errorf("suite %s: different seeds produced identical op sequences", name)
			}
		})
	}
}

// TestSuiteMixFidelity verifies, for every new suite, that observed op
// frequencies match the registered weights within 4-sigma binomial
// tolerance, and that weight-0 probes never enter the mix.
func TestSuiteMixFidelity(t *testing.T) {
	info := Info{Customers: 120, Products: 120, Orders: 900}
	clients, opsPer := 4, 2500
	for _, name := range newSuites {
		name := name
		t.Run(name, func(t *testing.T) {
			suite, _ := SuiteByName(name)
			e := &recordingExecutor{t: t, traces: make([][]string, clients)}
			res := RunMix(e, info, suite.Mix(e), DriverConfig{
				Clients: clients, OpsPerClient: opsPer, Seed: 7, Suite: name,
			})
			total := float64(clients * opsPer)
			if res.Ops != int64(total) || res.Errors != 0 {
				t.Fatalf("ops/errors = %d/%d, want %v/0", res.Ops, res.Errors, total)
			}
			counts := map[string]int{}
			for _, tr := range e.traces {
				for _, op := range tr {
					counts[strings.SplitN(op, "|", 2)[0]]++
				}
			}
			totalWeight := 0
			for _, op := range suite.Ops {
				totalWeight += op.Weight
			}
			for _, op := range suite.Ops {
				if op.Weight <= 0 {
					if counts[op.Name] != 0 {
						t.Errorf("probe %s dispatched %d times by the mix", op.Name, counts[op.Name])
					}
					continue
				}
				want := float64(op.Weight) / float64(totalWeight)
				got := float64(counts[op.Name]) / total
				sigma := math.Sqrt(want * (1 - want) / total)
				if math.Abs(got-want) > 4*sigma+0.001 {
					t.Errorf("op %s frequency %.4f, want %.4f ±%.4f", op.Name, got, want, 4*sigma)
				}
			}
		})
	}
}

// suiteFixture loads one suite's dataset into both engines.
type suiteFixture struct {
	suite *Suite
	info  Info
	uni   *UDBMSEngine
	fed   *FederationEngine
}

func newSuiteFixture(t testing.TB, name string, sf float64) *suiteFixture {
	t.Helper()
	suite, ok := SuiteByName(name)
	if !ok {
		t.Fatalf("suite %q not registered", name)
	}
	data := suite.Generate(sf, 1234)
	db := udbms.Open()
	if err := data.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	f := federation.Open()
	if err := data.Load(f.Stores()); err != nil {
		t.Fatal(err)
	}
	return &suiteFixture{suite: suite, info: data.Info(), uni: NewUDBMSEngine(db), fed: NewFederationEngine(f)}
}

// TestSuiteEnginesAgreeOnReads verifies both engines return identical
// cardinalities for every read op of every new suite over the same
// loaded dataset — the suite analogue of the Q1–Q13 equivalence test.
func TestSuiteEnginesAgreeOnReads(t *testing.T) {
	for _, name := range newSuites {
		name := name
		t.Run(name, func(t *testing.T) {
			fx := newSuiteFixture(t, name, 0.05)
			gen := NewParamGen(fx.info, 7, 0.5)
			for trial := 0; trial < 8; trial++ {
				p := gen.Next()
				for _, op := range fx.suite.Ops {
					if op.Write {
						continue
					}
					a, err := fx.uni.RunSuiteOp(name, op.Name, p)
					if err != nil {
						t.Fatalf("%s udbms: %v", op.Name, err)
					}
					b, err := fx.fed.RunSuiteOp(name, op.Name, p)
					if err != nil {
						t.Fatalf("%s federation: %v", op.Name, err)
					}
					if a != b {
						t.Errorf("%s: udbms=%d federation=%d (params %+v)", op.Name, a, b, p)
					}
				}
			}
		})
	}
}

// TestSuiteMixRunsOnEngines drives each new suite's full default mix
// closed-loop against both engines over real data and requires an
// error-free run with suite telemetry attached and the suite label in
// the summary.
func TestSuiteMixRunsOnEngines(t *testing.T) {
	for _, name := range newSuites {
		name := name
		t.Run(name, func(t *testing.T) {
			fx := newSuiteFixture(t, name, 0.05)
			for _, e := range []Engine{fx.uni, fx.fed} {
				res := RunMix(e, fx.info, fx.suite.Mix(e), DriverConfig{
					Clients: 4, OpsPerClient: 60, Theta: 0.7, Seed: 11, Suite: name,
				})
				if res.Errors != 0 || res.Aborts != 0 {
					t.Fatalf("%s on %s: %d errors, %d aborts", name, e.Name(), res.Errors, res.Aborts)
				}
				if res.Ops != 240 {
					t.Errorf("%s on %s: ops = %d, want 240", name, e.Name(), res.Ops)
				}
				if res.SuiteStats == nil {
					t.Fatalf("%s on %s: no suite telemetry attached", name, e.Name())
				}
				if got := res.SuiteStats.Reads + res.SuiteStats.Writes; got != res.Ops {
					t.Errorf("%s on %s: suite ops %d != driver ops %d", name, e.Name(), got, res.Ops)
				}
				s := res.Summary()
				if s.Suite != name || s.SuiteStats == nil {
					t.Errorf("%s on %s: summary suite/stats = %q/%v", name, e.Name(), s.Suite, s.SuiteStats)
				}
			}
		})
	}
}

// TestSuiteProbesHoldOnUnified runs every suite's consistency probes on
// the unified engine — before and after a write-heavy mix, and while
// writers run concurrently. The unified engine's cross-model snapshots
// must never show a violation.
func TestSuiteProbesHoldOnUnified(t *testing.T) {
	for _, name := range newSuites {
		name := name
		t.Run(name, func(t *testing.T) {
			fx := newSuiteFixture(t, name, 0.05)
			probeAll := func(stage string) {
				gen := NewParamGen(fx.info, 99, 0)
				for i := 0; i < 20; i++ {
					p := gen.Next()
					for _, probe := range fx.suite.Probes() {
						v, err := fx.uni.RunSuiteOp(name, probe.Name, p)
						if err != nil {
							t.Fatalf("%s probe %s (%s): %v", name, probe.Name, stage, err)
						}
						if v != 0 {
							t.Errorf("%s probe %s reported %d violations %s (params %+v)",
								name, probe.Name, v, stage, p)
						}
					}
				}
			}
			probeAll("on the freshly loaded store")

			// Probe concurrently with writers: unified snapshots must keep
			// every cross-model invariant intact mid-flight.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := NewParamGen(fx.info, 5, 0.9)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					p := gen.Next()
					p.FreshID = gen.NewOrderID(uint64(7000+i), 0, i)
					for _, op := range fx.suite.Ops {
						if !op.Write {
							continue
						}
						if _, err := fx.uni.RunSuiteOp(name, op.Name, p); err != nil {
							t.Errorf("%s writer %s: %v", name, op.Name, err)
							return
						}
					}
				}
			}()
			probeAll("concurrently with writers")
			close(stop)
			wg.Wait()
			probeAll("after the writers finished")
		})
	}
}

// TestSuiteOpErrors pins the dispatch failure modes: unknown suites and
// ops error descriptively, and t2's native ops are not runnable through
// the shared-body path.
func TestSuiteOpErrors(t *testing.T) {
	fx := newSuiteFixture(t, "timeseries", 0.02)
	if _, err := fx.uni.RunSuiteOp("no-such-suite", "append", Params{}); err == nil {
		t.Error("unknown suite ran")
	}
	if _, err := fx.uni.RunSuiteOp("timeseries", "no-such-op", Params{}); err == nil {
		t.Error("unknown op ran")
	}
	if _, err := fx.uni.RunSuiteOp("t2", "Q1", Params{}); err == nil {
		t.Error("t2 native op ran through the shared-body dispatch")
	}
	if _, err := (nopEngine{}).RunSuiteOp("timeseries", "watermark", Params{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("probe on a backend without suite execution = %v, want ErrUnsupported", err)
	}
	mix := (&Suite{Name: "x", Ops: []SuiteOp{{Name: "a", Weight: 1}}}).Mix(nopEngine{})
	if len(mix) != 1 {
		t.Fatalf("mix items = %d, want 1", len(mix))
	}
	if err := mix[0].Run(Params{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("mix over a backend without suite execution = %v, want ErrUnsupported", err)
	}
}
