package workload

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// traceMix builds a mix of no-op items that record every dispatched
// operation (name + params) per client. The client index is recovered
// from FreshID, which the driver stamps as "o-new-r<run>-<client>-<seq>".
func traceMix(t *testing.T, weights map[string]int, traces [][]string) []MixItem {
	t.Helper()
	var mu sync.Mutex
	record := func(name string, p Params) {
		parts := strings.Split(p.FreshID, "-")
		if len(parts) != 5 {
			t.Fatalf("unexpected FreshID %q", p.FreshID)
		}
		client, err := strconv.Atoi(parts[3])
		if err != nil || client < 0 || client >= len(traces) {
			t.Fatalf("bad client in FreshID %q", p.FreshID)
		}
		mu.Lock()
		traces[client] = append(traces[client],
			name+"|"+strconv.Itoa(p.CustomerID)+"|"+p.OrderID+"|"+p.ProductID+"|"+p.City)
		mu.Unlock()
	}
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	// Deterministic item order (map iteration would shuffle weights).
	sort.Strings(names)
	mix := make([]MixItem, 0, len(names))
	for _, name := range names {
		name := name
		mix = append(mix, MixItem{Name: name, Weight: weights[name], Run: func(p Params) error {
			record(name, p)
			return nil
		}})
	}
	return mix
}

// TestDriverDeterminism verifies that two runs with the same seed
// dispatch identical per-client operation sequences (names and
// parameters), and that changing the seed changes the sequence.
func TestDriverDeterminism(t *testing.T) {
	info := Info{Customers: 500, Products: 100, Orders: 800}
	weights := map[string]int{"A": 50, "B": 30, "C": 20}
	run := func(seed uint64) [][]string {
		traces := make([][]string, 4)
		RunMix(nil, info, traceMix(t, weights, traces), DriverConfig{
			Clients: 4, OpsPerClient: 200, Theta: 0.7, Seed: seed,
		})
		return traces
	}
	a, b := run(42), run(42)
	for c := range a {
		if len(a[c]) != 200 {
			t.Fatalf("client %d dispatched %d ops, want 200", c, len(a[c]))
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
		t.Error("different seeds produced identical op sequences")
	}
}

// TestMixFidelity verifies observed operation frequencies match the mix
// weights within statistical tolerance, both for a synthetic mix and
// for the StandardMix weights themselves.
func TestMixFidelity(t *testing.T) {
	info := Info{Customers: 500, Products: 100, Orders: 800}
	weights := map[string]int{"Q1": 50, "T1": 20, "T2": 15, "T3": 10, "T4": 5}
	clients, opsPer := 4, 2500
	traces := make([][]string, clients)
	res := RunMix(nil, info, traceMix(t, weights, traces), DriverConfig{
		Clients: clients, OpsPerClient: opsPer, Seed: 7,
	})
	total := float64(clients * opsPer)
	if res.Ops != int64(total) {
		t.Fatalf("ops = %d, want %v", res.Ops, total)
	}
	totalWeight := 0
	for _, w := range weights {
		totalWeight += w
	}
	counts := map[string]int{}
	for _, tr := range traces {
		for _, op := range tr {
			counts[strings.SplitN(op, "|", 2)[0]]++
		}
	}
	for name, w := range weights {
		want := float64(w) / float64(totalWeight)
		got := float64(counts[name]) / total
		// 4-sigma binomial tolerance: generous enough to never flake,
		// tight enough to catch a broken weighted pick.
		sigma := math.Sqrt(want * (1 - want) / total)
		if math.Abs(got-want) > 4*sigma+0.001 {
			t.Errorf("op %s frequency %.4f, want %.4f ±%.4f", name, got, want, 4*sigma)
		}
	}
	// The per-op histograms must account for every op exactly once.
	var histTotal int64
	for name, h := range res.PerOp {
		if h.Service.Count() != int64(counts[name]) {
			t.Errorf("%s histogram count %d != dispatched %d", name, h.Service.Count(), counts[name])
		}
		histTotal += h.Service.Count()
	}
	if histTotal != res.Ops || res.Latency.Count() != res.Ops {
		t.Errorf("histogram totals %d/%d != ops %d", histTotal, res.Latency.Count(), res.Ops)
	}
}

// nopEngine is the minimal Engine for mix-shape tests: fully capable
// per its descriptor, so StandardMix builds the whole 5-item mix.
type nopEngine struct{}

func (nopEngine) Name() string                          { return "nop" }
func (nopEngine) Capabilities() Capabilities            { return FullCapabilities() }
func (nopEngine) RunQuery(QueryID, Params) (int, error) { return 0, nil }
func (nopEngine) OrderUpdate(Params) error              { return nil }
func (nopEngine) OrderUpdateOnce(Params) error          { return nil }
func (nopEngine) StockTransferOnce(Params) error        { return nil }
func (nopEngine) NewOrder(Params) error                 { return nil }
func (nopEngine) WriteFeedback(Params) error            { return nil }
func (nopEngine) SnapshotRead(Params) (bool, error)     { return false, nil }

// TestRunMixRejectsInvalidMix pins the empty/zero-weight validation:
// an undrivable mix must come back as a zero Result with one error
// counted, never as an rng.Intn(0) panic inside a worker.
func TestRunMixRejectsInvalidMix(t *testing.T) {
	info := Info{Customers: 10, Products: 10, Orders: 10}
	cases := map[string][]MixItem{
		"empty":       {},
		"zero-weight": {{Name: "A", Weight: 0, Run: func(Params) error { return nil }}},
		"negative":    {{Name: "A", Weight: -3, Run: func(Params) error { return nil }}, {Name: "B", Weight: 5, Run: func(Params) error { return nil }}},
	}
	for name, mix := range cases {
		for _, mode := range []DriverMode{ModeClosed, ModeOpen} {
			res := RunMix(nil, info, mix, DriverConfig{
				Clients: 2, OpsPerClient: 10, Seed: 1, Mode: mode, RateOpsPerSec: 1000,
			})
			if res.Ops != 0 || res.Errors != 1 {
				t.Errorf("%s/%v mix: ops=%d errors=%d, want 0/1", name, mode, res.Ops, res.Errors)
			}
			if res.Throughput != 0 {
				t.Errorf("%s/%v mix reported throughput %g", name, mode, res.Throughput)
			}
		}
	}
}

// TestStandardMixWeights pins the documented 50/20/15/10/5 split.
func TestStandardMixWeights(t *testing.T) {
	mix := StandardMix(nopEngine{})
	want := map[string]int{"Q1": 50, "T1": 20, "T2": 15, "T3": 10, "T4": 5}
	if len(mix) != len(want) {
		t.Fatalf("mix has %d items", len(mix))
	}
	for _, m := range mix {
		if want[m.Name] != m.Weight {
			t.Errorf("%s weight = %d, want %d", m.Name, m.Weight, want[m.Name])
		}
	}
}

// TestResultSummary checks the machine-readable digest carries the run
// over faithfully.
func TestResultSummary(t *testing.T) {
	info := Info{Customers: 50, Products: 20, Orders: 80}
	traces := make([][]string, 2)
	res := RunMix(nil, info, traceMix(t, map[string]int{"A": 3, "B": 1}, traces), DriverConfig{
		Clients: 2, OpsPerClient: 50, Seed: 3,
	})
	s := res.Summary()
	if s.Ops != 100 || s.Clients != 2 || s.Engine != res.Engine {
		t.Errorf("summary header wrong: %+v", s)
	}
	if len(s.PerOp) != 2 || s.PerOp[0].Name != "A" || s.PerOp[1].Name != "B" {
		t.Errorf("per-op entries wrong: %+v", s.PerOp)
	}
	var n int64
	for _, op := range s.PerOp {
		n += op.Count
	}
	if n != s.Ops {
		t.Errorf("per-op counts sum to %d, want %d", n, s.Ops)
	}
	if s.Throughput <= 0 || s.ElapsedNS <= 0 {
		t.Errorf("throughput/elapsed missing: %+v", s)
	}
}
