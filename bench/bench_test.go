package main

import (
	"math"
	"testing"
)

// smallRun runs every workload (one untraced and one traced round each)
// and every probe at a size that finishes in a few seconds.
func smallRun(t *testing.T, seed uint64) (map[string]*result, map[string]float64) {
	t.Helper()
	outDir := t.TempDir()
	results := map[string]*result{}
	for _, sp := range specs {
		sp.sf, sp.opsPerClient = 0.05, 200
		if sp.analytics {
			sp.opsPerClient = 3
		}
		res, err := runWorkload(sp, seed, 0, true, outDir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s: output checks failed: %v", sp.name, res.problems)
		}
		if res.untraced != 1 || res.traced != 1 {
			t.Errorf("%s: %d untraced and %d traced rounds, want one of each", sp.name, res.untraced, res.traced)
		}
		results[sp.name] = res
	}
	probes, err := runProbes(seed, 0.05, 0.02, outDir)
	if err != nil {
		t.Fatal(err)
	}
	return results, probes
}

// TestSmoke holds the program to BENCHMARK.json:
// every declared workload exists, and on each of them every declared
// metric is measured exactly once, finite, under the declared unit.
//
// The same seed is then run again: the work must repeat exactly
// (per-class op counts, WAL bytes per commit, orders added, result
// cardinalities) even though the timings do not.
func TestSmoke(t *testing.T) {
	decl, _, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	results, probes := smallRun(t, 7)
	if len(decl.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(specs))
	}
	for _, w := range decl.Workloads {
		res := results[w.Name]
		if res == nil {
			t.Errorf("declared workload %s does not exist", w.Name)
			continue
		}
		for _, m := range decl.EndToEnd {
			v, ok := res.metrics[m.Name]
			if !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (measured %v), want a positive finite value", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range decl.PerLayer {
			fromRun, inRun := res.metrics[m.Name]
			fromProbe, inProbes := probes[m.Name]
			if inRun == inProbes {
				t.Errorf("%s: per-layer metric %s measured by the run: %v, by a probe: %v; want exactly one", w.Name, m.Name, inRun, inProbes)
			}
			if v := fromRun + fromProbe; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, m.Name, v)
			}
		}
	}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if got := unitOf(m.Name); got != m.Unit {
			t.Errorf("metric %s is declared in %q but printed in %q", m.Name, m.Unit, got)
		}
	}

	again, _ := smallRun(t, 7)
	for name, a := range results {
		b := again[name]
		for class, c := range a.classes {
			if got := b.classes[class].Count; got != c.Count {
				t.Errorf("%s: class %s ran %d times, then %d times", name, class, c.Count, got)
			}
		}
		for _, k := range []string{"wal.bytes_per_commit", "store.orders_added"} {
			if a.metrics[k] != b.metrics[k] {
				t.Errorf("%s: %s = %v, then %v", name, k, a.metrics[k], b.metrics[k])
			}
		}
		if a.rounds[0].cardinality != b.rounds[0].cardinality {
			t.Errorf("%s: summed result cardinality %d, then %d", name, a.rounds[0].cardinality, b.rounds[0].cardinality)
		}
	}
}
