package core

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// QuickConfig returns a configuration sized for the tests: the quick
// mode at SF 0.03.
func QuickConfig() Config {
	return Config{SF: 0.03, Seed: 42, Quick: true, HopLatency: 20 * time.Microsecond}
}

// TestRegistryComplete checks the experiment list: every experiment
// in ID order, each ID once.
func TestRegistryComplete(t *testing.T) {
	want := []string{"a1", "f1", "f2", "f3", "f4", "f5", "f6", "t2", "t3", "t4", "t5"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("list has %d experiments, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i, e := range got {
		if seen[e.ID] {
			t.Errorf("experiment %s listed twice", e.ID)
		}
		seen[e.ID] = true
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Name == "" || e.Pillar == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("t2"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("zz"); ok {
		t.Error("phantom experiment")
	}
}

func TestF1DatasetStats(t *testing.T) {
	tables, err := runF1(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].NumRows() != 2 {
		t.Fatalf("F1 shape wrong: %d tables", len(tables))
	}
	out := tables[0].String()
	if !strings.Contains(out, "F1") || !strings.Contains(out, "customers") {
		t.Errorf("F1 output:\n%s", out)
	}
}

func TestT2QueryLatency(t *testing.T) {
	tables, err := runT2(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if tab.NumRows() != 13 {
		t.Fatalf("T2 rows = %d, want 13", tab.NumRows())
	}
	// Expected shape: the federation pays hop latency, so on
	// multi-request queries the speedup column should mostly be > 1.
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")[1:]
	faster := 0
	for _, line := range lines {
		cols := strings.Split(line, ",")
		sp, err := strconv.ParseFloat(cols[len(cols)-1], 64)
		if err != nil {
			continue
		}
		if sp > 1 {
			faster++
		}
	}
	if faster < 6 {
		t.Errorf("unified engine faster on only %d/10 queries:\n%s", faster, tab.String())
	}
}

func TestF2Throughput(t *testing.T) {
	tables, err := runF2(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 3 {
		t.Fatalf("F2 rows = %d", tables[0].NumRows())
	}
}

func TestF3Contention(t *testing.T) {
	tables, err := runF3(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 2 {
		t.Fatalf("F3 rows = %d", tables[0].NumRows())
	}
}

func TestT3Consistency(t *testing.T) {
	tables, err := runT3(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("T3 should produce two tables, got %d", len(tables))
	}
	// Expected shape: strong rows report zero violations; the torn
	// table's udbms row reports 0 torn reads.
	out := tables[0].String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "strong") {
			fields := strings.Fields(line)
			// "RYW viol" column is the 3rd data column.
			if fields[2] != "0" {
				t.Errorf("strong mode row has violations: %s", line)
			}
		}
	}
	torn := tables[1].CSV()
	for _, line := range strings.Split(strings.TrimSpace(torn), "\n")[1:] {
		cols := strings.Split(line, ",")
		if cols[0] == "udbms" && cols[2] != "0" {
			t.Errorf("udbms torn reads = %s", cols[2])
		}
	}
}

func TestT4Evolution(t *testing.T) {
	tables, err := runT4(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if tab.NumRows() != 9 { // k = 0..8
		t.Fatalf("T4 rows = %d", tab.NumRows())
	}
	// Expected shape: validity in the plain column decreases
	// monotonically down the chain. (The "last op" column is last in
	// the CSV because op names can contain commas.)
	csv := strings.Split(strings.TrimSpace(tab.CSV()), "\n")[1:]
	prev := 1 << 30
	for _, line := range csv {
		cols := strings.Split(line, ",")
		frac := cols[1] // "valid" like "8/8"
		num, _ := strconv.Atoi(strings.Split(frac, "/")[0])
		if num > prev {
			t.Errorf("validity increased: %s", line)
		}
		prev = num
	}
}

func TestT5Conversion(t *testing.T) {
	tables, err := runT5(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if tab.NumRows() != 6 {
		t.Fatalf("T5 rows = %d, want 6", tab.NumRows())
	}
	// Expected shape: every fidelity is 1 (the lossless pairs and the
	// regular invoice corpus).
	csv := strings.Split(strings.TrimSpace(tab.CSV()), "\n")[1:]
	for _, line := range csv {
		cols := strings.Split(line, ",")
		if cols[2] != "1" {
			t.Errorf("conversion fidelity below 1: %s", line)
		}
	}
}

func TestF4ScaleUp(t *testing.T) {
	tables, err := runF4(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 2 {
		t.Fatalf("F4 rows = %d", tables[0].NumRows())
	}
}

// shapeLadder is the rate ladder the sweep tests climb: three short
// rungs are enough to assert a sweep's shape (legs, labels, a knee, the
// backlog showing in intended latency). The first rung is already past
// the quick federation's capacity; `udbench run f5 -quick` keeps the
// full f5ConfigFor ladder.
var shapeLadder = f5Config{baseRate: 4000, factor: 4, maxSteps: 3, clients: 4, theta: 0.5,
	warmup: 30 * time.Millisecond, measure: 150 * time.Millisecond}

func TestF5LatencyVsRate(t *testing.T) {
	rows, err := f5Sweep(QuickConfig(), shapeLadder)
	if err != nil {
		t.Fatal(err)
	}
	byEngine := map[string][]f5Row{}
	for _, r := range rows {
		byEngine[r.Engine] = append(byEngine[r.Engine], r)
	}
	tables := f5Tables(QuickConfig(), shapeLadder, rows)
	t.Logf("\n%s", tables[0])
	if tables[0].NumRows() != len(rows) || tables[1].NumRows() != len(byEngine) {
		t.Errorf("tables have %d sweep rows and %d knee rows, want %d and %d",
			tables[0].NumRows(), tables[1].NumRows(), len(rows), len(byEngine))
	}
	// Every leg names the ops it ran: the comparative leg's degraded
	// mix must not read as like-for-like against the native one.
	wantOps := map[string]string{
		"udbms": "Q1+T1+T2+T3+T4", "federation": "Q1+T1+T2+T3+T4", "relational": "Q1",
	}
	for eng, ops := range wantOps {
		if len(byEngine[eng]) == 0 {
			t.Fatalf("sweep has no %s rows", eng)
		}
		for _, r := range byEngine[eng] {
			if r.Ops != ops {
				t.Errorf("%s @ %.0f: ops = %q, want %q", eng, r.Offered, r.Ops, ops)
			}
		}
	}
	for _, r := range rows {
		if r.Achieved <= 0 {
			t.Errorf("%s @ %.0f ops/s achieved nothing", r.Engine, r.Offered)
		}
		if r.IntP50 < r.SvcP50/2 {
			t.Errorf("%s @ %.0f: intended p50 %v implausibly below service p50 %v",
				r.Engine, r.Offered, r.IntP50, r.SvcP50)
		}
		// T2 inserts must never hit duplicate FreshIDs across the
		// ladder's repeated runs on one loaded store: with the mix's
		// retried transactions, every expected error is an abort
		// (deadlock give-up, 2PC crash) — any surplus is a duplicate
		// key from FreshID reuse.
		if r.Errors != r.Aborts {
			t.Errorf("%s @ %.0f: %d errors but only %d aborts — duplicate FreshIDs across sweep runs?",
				r.Engine, r.Offered, r.Errors, r.Aborts)
		}
	}
	// The sweep must push the federation past its knee, and at that
	// rung the coordinated-omission-free tail must dwarf service
	// latency — the whole point of measuring open-loop.
	fed := byEngine["federation"]
	lastFed := fed[len(fed)-1]
	if !lastFed.Saturated {
		t.Fatalf("ladder never saturated the federation (top rung %.0f ops/s achieved %.0f)",
			lastFed.Offered, lastFed.Achieved)
	}
	if lastFed.IntP99 < 2*lastFed.SvcP99 {
		t.Errorf("federation knee rung: intended p99 %v < 2x service p99 %v — backlog not visible",
			lastFed.IntP99, lastFed.SvcP99)
	}
	// The udbms sweep must climb past the federation's knee rate: the
	// unified engine's capacity headroom is the paper's claim.
	uni := byEngine["udbms"]
	if topU, topF := uni[len(uni)-1].Offered, lastFed.Offered; topU < topF {
		t.Errorf("udbms ladder stopped at %.0f ops/s, below the federation knee %.0f", topU, topF)
	}
}

func TestF6RecoverySweep(t *testing.T) {
	cfg := QuickConfig()
	p := f6ConfigFor(cfg)
	p.opsLadder = p.opsLadder[:2] // two rungs keep the test fast
	rows, err := f6RecoverySweep(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byMode := map[string][]f6RecoveryRow{}
	for _, r := range rows {
		if r.Records == 0 || r.LogBytes == 0 || r.Elapsed <= 0 {
			t.Errorf("empty recovery row: %+v", r)
		}
		byMode[r.Mode] = append(byMode[r.Mode], r)
	}
	// The snapshot skips the load's records, so at equal write counts
	// the snapshot+tail recovery replays strictly fewer log records.
	for i, lo := range byMode["log"] {
		st := byMode["snapshot+tail"][i]
		if st.SnapOps == 0 {
			t.Errorf("snapshot+tail rung %d applied no snapshot ops", i)
		}
		if st.Records >= lo.Records {
			t.Errorf("rung %d: snapshot+tail replayed %d records, log-only %d — snapshot saved nothing",
				i, st.Records, lo.Records)
		}
	}
}

func TestF6PolicySweep(t *testing.T) {
	cfg := QuickConfig()
	p := f6ConfigFor(cfg)
	// The knee ordering shows within three short rungs.
	p.sweep.maxSteps, p.sweep.warmup, p.sweep.measure = 3, shapeLadder.warmup, shapeLadder.measure
	rows, err := f6PolicySweep(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	tables := f6Tables(cfg, p, nil, rows)
	t.Logf("\n%s", tables[1])
	if knee := tables[2]; knee.NumRows() != 3 {
		t.Errorf("knee digest has %d rows, want one per policy:\n%s", knee.NumRows(), knee)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Engine] = true
		if r.Durability == nil {
			t.Errorf("%s @ %.0f: no durability telemetry", r.Engine, r.Offered)
			continue
		}
		if r.Durability.Appends == 0 {
			t.Errorf("%s @ %.0f: no commit records logged", r.Engine, r.Offered)
		}
		if r.Durability.Sealed {
			t.Errorf("%s @ %.0f: log sealed during a fault-free sweep", r.Engine, r.Offered)
		}
	}
	for _, policy := range []string{"always", "group", "async"} {
		if !seen[policy] {
			t.Errorf("sweep has no %s rows", policy)
		}
	}
	// SyncAlways pays one barrier per commit (structural: the policy
	// syncs per record); group and async must amortize. Which rung each
	// policy's ladder ends on is timing-dependent, so compare barrier
	// cost summed over each policy's whole sweep.
	total := func(policy string) (appends, fsyncs uint64) {
		for _, r := range rows {
			if r.Engine == policy && r.Durability != nil {
				appends += r.Durability.Appends
				fsyncs += r.Durability.Fsyncs
			}
		}
		return
	}
	aApp, aSync := total("always")
	if aApp == 0 || aApp != aSync {
		t.Errorf("always policy: %d fsyncs for %d commits, want exactly one per commit", aSync, aApp)
	}
	for _, policy := range []string{"group", "async"} {
		app, sync := total(policy)
		if app == 0 || sync >= app {
			t.Errorf("%s policy did not amortize barriers: %d fsyncs for %d commits", policy, sync, app)
		}
	}
}

// TestRunAllQuick runs, through the experiment list and RunAll, every
// experiment that has no dedicated test above — re-running the ones
// that do would only repeat their sweeps.
func TestRunAllQuick(t *testing.T) {
	dedicated := map[string]bool{"f1": true, "f2": true, "f3": true, "f4": true, "f5": true, "f6": true,
		"t2": true, "t3": true, "t4": true, "t5": true}
	all := experiments
	defer func() { experiments = all }()
	experiments = nil
	for _, e := range all {
		if !dedicated[e.ID] {
			experiments = append(experiments, e)
		}
	}
	if len(experiments) == 0 {
		t.Fatal("every experiment has a dedicated test: nothing left to run through RunAll")
	}
	tables, err := RunAll(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < len(experiments) {
		t.Fatalf("RunAll produced %d tables for %d experiments", len(tables), len(experiments))
	}
	for _, tab := range tables {
		if tab.NumRows() == 0 {
			t.Errorf("table %q is empty", tab.Title)
		}
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.SF <= 0 || d.HopLatency <= 0 {
		t.Error("default config not sane")
	}
	q := QuickConfig()
	if !q.Quick || q.SF >= d.SF {
		t.Error("quick config not sane")
	}
}

func TestMedianOf(t *testing.T) {
	calls := 0
	d, err := medianOf(3, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || calls != 3 || d < time.Millisecond {
		t.Errorf("medianOf = %v, calls %d, err %v", d, calls, err)
	}
	if _, err := medianOf(0, func() error { return nil }); err != nil {
		t.Error("k<1 should clamp")
	}
}
