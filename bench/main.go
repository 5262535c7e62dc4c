// Command bench is the repository's benchmark: four closed-loop
// workloads over the unified engine, each measured end to end and layer
// by layer. See README.md in this directory.
//
// The driver's form runs one workload and ends with one JSON line:
//
//	bench -workload t2-inproc -seed 42 -seconds 20 -trace 0
//
// Without -workload it runs everything (every workload untraced and
// traced, the layer probes, the output checks), prints every metric by
// name and writes one JSON document:
//
//	bench -seed 42 [-repeat 3] [-only t2-durable] [-probes-only]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// declaration is BENCHMARK.json: the names, units and bounds this
// program's output is held to.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration finds BENCHMARK.json in the working directory or its
// parent (the benchmark's own directory sits one below the root).
func loadDeclaration() (declaration, string, error) {
	var d declaration
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &d); err != nil {
			return d, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return d, root, nil
	}
	return d, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// unitOf derives a metric's unit from its name, so a name cannot be
// printed under two units.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ops_s", "ops/s"}, {"_per_s", "1/s"}, {"_ns_per_row", "ns"}, {"_ns", "ns"},
		{"_us_per_op", "us"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_frac", "frac"},
		{"_mb", "MB"}, {"_bytes", "bytes"}, {"bytes_per_commit", "bytes"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(values))
	for k, v := range values {
		out[k] = metricValue{Value: v, Unit: unitOf(k)}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(scope string, values map[string]float64) {
	for _, k := range sortedKeys(values) {
		fmt.Printf("%-13s %-34s %16.4f %s\n", scope, k, values[k], unitOf(k))
	}
}

// printRounds shows what the gated medians were taken over.
func printRounds(res *result) {
	for _, name := range []string{"throughput_ops_s", "op_p50_us", "setup_s"} {
		fmt.Printf("%-13s rounds %-27s", res.spec.name, name)
		for _, r := range res.rounds {
			if v, ok := r.values[name]; ok && (!r.traced || name == "setup_s") {
				fmt.Printf(" %.5g", v)
			}
		}
		fmt.Println()
	}
}

func printClasses(res *result) {
	for _, class := range sortedKeys(res.classes) {
		c := res.classes[class]
		fmt.Printf("%-13s class %-5s n=%-6d p50 %12.2f us   p%.0f %12.2f us   (ungated)\n",
			res.spec.name, class, c.Count, c.P50us, c.TailPct, c.Tailus)
	}
}

// options are the command line.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	repeat     int
	only       string
	probesOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's JSON line")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of the generated data and op parameters")
	flag.IntVar(&o.seconds, "seconds", 0, "time budget of one workload's rounds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run everything this many times and report medians, quartiles and spreads")
	flag.StringVar(&o.only, "only", "", "without -workload: run just this workload")
	flag.BoolVar(&o.probesOnly, "probes-only", false, "run just the layer probes")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	decl, root, err := loadDeclaration()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = decl.RunSeconds
	}
	budget := time.Duration(o.seconds) * time.Second
	switch {
	case o.workload != "":
		return runForDriver(decl, o.workload, o.seed, budget, o.trace == 1, outDir)
	case o.probesOnly:
		probes, err := runProbes(o.seed, 1, 1, outDir)
		if err != nil {
			return err
		}
		printMetrics("probe", probes)
		return nil
	}
	return runEverything(decl, o.seed, budget, o.repeat, o.only, outDir)
}

// runForDriver is the contract's form: one workload, and as the last
// line of standard output {"correct","attempted","failed","metrics"}.
func runForDriver(decl declaration, name string, seed uint64, budget time.Duration, trace bool, outDir string) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	start := time.Now()
	values := map[string]float64{}
	wanted := decl.EndToEnd
	if trace {
		wanted = decl.PerLayer
		probes, err := runProbes(seed, 1, 1, outDir)
		if err != nil {
			return err
		}
		values = probes
	}
	res, err := runWorkload(sp, seed, budget-time.Since(start), trace, outDir)
	if err != nil {
		return err
	}
	for k, v := range res.metrics {
		values[k] = v
	}
	printMetrics(name, values)
	printRounds(res)
	printClasses(res)
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metricValue{}}
	for _, m := range wanted {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: declared metric %s was not measured", name, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return res.err()
}

// document is the machine-readable result of a full run.
type document struct {
	Machine struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
	} `json:"machine"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds_per_workload"`
	Clients   int                        `json:"clients"`
	Theta     float64                    `json:"theta"`
	Runs      []runDoc                   `json:"runs"`
	Repeat    map[string]map[string]dist `json:"repeat,omitempty"`
	Reconcile []reconciliation           `json:"reconcile"`
}

type runDoc struct {
	Workloads map[string]workloadDoc `json:"workloads"`
	Probes    map[string]metricValue `json:"probes"`
}

type workloadDoc struct {
	SF             float64                `json:"sf"`
	OpsPerClient   int                    `json:"ops_per_client"`
	RoundsUntraced int                    `json:"rounds_untraced"`
	RoundsTraced   int                    `json:"rounds_traced"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	FailedFrac     float64                `json:"failed_frac"`
	Correct        bool                   `json:"correct"`
	Metrics        map[string]metricValue `json:"metrics"`
	Classes        map[string]classStats  `json:"classes"`
}

// dist summarises one metric over the repeats of a -repeat run.
type dist struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (max - min) / median
	Bound  float64   `json:"bound,omitempty"`
	Gated  bool      `json:"gated"`
}

// reconciliation checks one layer-attribution identity: a difference of
// traced or end-to-end medians against the probe that should explain it.
type reconciliation struct {
	What     string  `json:"what"`
	Measured float64 `json:"measured_us"`
	Probe    float64 `json:"probe_us"`
	Ratio    float64 `json:"ratio"`
	Within2x bool    `json:"within_2x"`
}

func runEverything(decl declaration, seed uint64, budget time.Duration, repeat int, only string, outDir string) error {
	selected := specs
	if only != "" {
		sp, ok := specByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []spec{sp}
	}
	var doc document
	doc.Machine.Cores, doc.Machine.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	doc.Machine.Go, doc.Machine.OS, doc.Machine.Arch = runtime.Version(), runtime.GOOS, runtime.GOARCH
	doc.Seed, doc.Seconds, doc.Clients, doc.Theta = seed, budget.Seconds(), clients, theta
	var failures []string
	var last map[string]*result
	var lastProbes map[string]float64
	for rep := 0; rep < repeat; rep++ {
		order := slices.Clone(selected)
		if rep%2 == 1 { // alternate the order, so position in the run is not part of a workload
			slices.Reverse(order)
		}
		probes, err := runProbes(seed, 1, 1, outDir)
		if err != nil {
			return err
		}
		printMetrics("probe", probes)
		rd := runDoc{Workloads: map[string]workloadDoc{}, Probes: withUnits(probes)}
		results := map[string]*result{}
		for _, sp := range order {
			res, err := runWorkload(sp, seed, budget, true, outDir)
			if err != nil {
				return err
			}
			results[sp.name] = res
			printMetrics(sp.name, res.metrics)
			printRounds(res)
			printClasses(res)
			fmt.Printf("%-13s attempted %d failed %d failed_frac %g rounds %d untraced + %d traced, checks %s\n", sp.name,
				res.attempted, res.failed, float64(res.failed)/float64(res.attempted), res.untraced, res.traced,
				map[bool]string{true: "passed", false: "FAILED"}[res.correct()])
			failures = append(failures, res.problems...)
			if o := res.metrics["trace_overhead_frac"]; o >= 0.05 {
				fmt.Printf("%-13s WARNING trace_overhead_frac %.4f is not below 0.05\n", sp.name, o)
			}
			rd.Workloads[sp.name] = workloadDoc{
				SF: sp.sf, OpsPerClient: sp.opsPerClient, RoundsUntraced: res.untraced, RoundsTraced: res.traced,
				Attempted: res.attempted, Failed: res.failed, FailedFrac: float64(res.failed) / float64(res.attempted),
				Correct: res.correct(), Metrics: withUnits(res.metrics), Classes: res.classes,
			}
		}
		doc.Runs = append(doc.Runs, rd)
		last, lastProbes = results, probes
	}
	doc.Reconcile = reconcile(last, lastProbes)
	for _, r := range doc.Reconcile {
		fmt.Printf("reconcile     %-44s measured %10.2f us  probe %10.2f us  ratio %5.2f  within 2x: %v\n",
			r.What, r.Measured, r.Probe, r.Ratio, r.Within2x)
	}
	if repeat > 1 {
		var exceeded []string
		doc.Repeat, exceeded = summariseRepeats(decl, selected, doc.Runs)
		failures = append(failures, exceeded...)
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(out))
	if len(failures) > 0 {
		return fmt.Errorf("%d checks failed: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// summariseRepeats folds the repeats of a -repeat run into one
// distribution per workload and metric, prints them, and names every
// gated metric whose spread over the repeats exceeds its bound.
func summariseRepeats(decl declaration, selected []spec, runs []runDoc) (map[string]map[string]dist, []string) {
	out := map[string]map[string]dist{}
	var exceeded []string
	names := []string{"read_p50_us", "write_p50_us", "recovery_s"}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		names = append(names, m.Name)
		bounds[m.Name] = m.Bound
	}
	for _, sp := range selected {
		out[sp.name] = map[string]dist{}
		for _, name := range names {
			var values []float64
			for _, rd := range runs {
				if v, ok := rd.Workloads[sp.name].Metrics[name]; ok {
					values = append(values, v.Value)
				}
			}
			if len(values) < 2 {
				continue
			}
			d := summarise(values)
			d.Bound, d.Gated = bounds[name], bounds[name] > 0
			out[sp.name][name] = d
			verdict := "ungated"
			if d.Gated {
				verdict = fmt.Sprintf("bound %.2f ok", d.Bound)
				if d.Spread > d.Bound {
					verdict = fmt.Sprintf("bound %.2f EXCEEDED", d.Bound)
					exceeded = append(exceeded, fmt.Sprintf("%s %s: spread %.4f over %d repeats exceeds its bound %.2f", sp.name, name, d.Spread, len(values), d.Bound))
				}
			}
			fmt.Printf("repeat        %-13s %-18s median %14.4f  q1 %14.4f  q3 %14.4f  spread %.4f  %s\n",
				sp.name, name, d.Median, d.Q1, d.Q3, d.Spread, verdict)
		}
	}
	return out, exceeded
}

// reconcile compares what the traces attribute to a layer with that
// layer's own probe. Only the pairs the available results allow.
func reconcile(results map[string]*result, probes map[string]float64) []reconciliation {
	var out []reconciliation
	add := func(what string, measured, probe float64) {
		r := reconciliation{What: what, Measured: measured, Probe: probe, Ratio: ratio(measured, probe)}
		r.Within2x = r.Ratio >= 0.5 && r.Ratio <= 2
		out = append(out, r)
	}
	if served := results["t2-served"]; served != nil {
		for _, k := range sortedKeys(served.metrics) {
			if strings.HasPrefix(k, "server.self.") {
				add("t2-served "+k+" vs server.rtt_us", served.metrics[k], probes["server.rtt_us"])
			}
		}
	}
	if durable, inproc := results["t2-durable"], results["t2-inproc"]; durable != nil && inproc != nil {
		add("t2-durable - t2-inproc write_p50_us vs wal.append_commit_us",
			durable.metrics["write_p50_us"]-inproc.metrics["write_p50_us"], probes["wal.append_commit_us"])
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarise gives the median, the quartiles as Python's
// statistics.quantiles(values, n=4) computes them, and the full spread.
func summarise(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s)
		j := max(1, min(i*(m+1)/4, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d := dist{Values: values, Median: median(s), Q1: quartile(1), Q3: quartile(3)}
	d.Spread = (s[len(s)-1] - s[0]) / d.Median
	return d
}
