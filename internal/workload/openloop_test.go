package workload

import (
	"testing"
	"time"
)

// buildOpenSchedule materializes the lazy schedule, so that the
// determinism tests can compare snapshots; the driver consumes the
// scheduler one arrival at a time.
func buildOpenSchedule(info Info, mix []MixItem, cfg DriverConfig, nonce uint64) []scheduledOp {
	s := newOpenScheduler(info, mix, cfg, nonce)
	var ops []scheduledOp
	for {
		op, ok := s.next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// TestArrivalScheduleShapes pins the two arrival processes: fixed
// schedules are an exact metronome at 1/rate, Poisson schedules are
// strictly increasing with mean gap ~1/rate, and both are seed-
// deterministic.
func TestArrivalScheduleShapes(t *testing.T) {
	fixed := NewArrivalSchedule(ArrivalFixed, 1000, 1)
	for i := 1; i <= 5; i++ {
		if got, want := fixed.Next(), time.Duration(i)*time.Millisecond; got != want {
			t.Fatalf("fixed arrival %d = %v, want %v", i, got, want)
		}
	}

	const n = 20000
	a, b := NewArrivalSchedule(ArrivalPoisson, 1000, 7), NewArrivalSchedule(ArrivalPoisson, 1000, 7)
	c := NewArrivalSchedule(ArrivalPoisson, 1000, 8)
	var prev, last time.Duration
	diverged := false
	for i := 0; i < n; i++ {
		av, bv, cv := a.Next(), b.Next(), c.Next()
		if av != bv {
			t.Fatalf("same-seed Poisson schedules diverge at arrival %d: %v vs %v", i, av, bv)
		}
		if av != cv {
			diverged = true
		}
		if av <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v after %v", i, av, prev)
		}
		prev, last = av, av
	}
	if !diverged {
		t.Error("different seeds produced identical Poisson schedules")
	}
	// n exponential(1ms) gaps sum to ~n ms; 4 sigma is n ± 4*sqrt(n) ms.
	mean := last / n
	if mean < 970*time.Microsecond || mean > 1030*time.Microsecond {
		t.Errorf("Poisson mean inter-arrival = %v, want ~1ms", mean)
	}
}

// TestOpenScheduleDeterminism verifies the whole pre-generated open-
// loop run — params, mix picks, arrival times — is a pure function of
// the config, independent of execution-time interleaving.
func TestOpenScheduleDeterminism(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	mix := []MixItem{{Name: "A", Weight: 3}, {Name: "B", Weight: 1}}
	cfg := DriverConfig{
		Clients: 3, OpsPerClient: 40, Theta: 0.6, Seed: 11,
		Mode: ModeOpen, RateOpsPerSec: 1000,
	}
	a, b := buildOpenSchedule(info, mix, cfg, 1), buildOpenSchedule(info, mix, cfg, 1)
	if len(a) != 120 {
		t.Fatalf("schedule length = %d, want Clients*OpsPerClient = 120", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed schedules differ at op %d:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 12
	c := buildOpenSchedule(info, mix, cfg, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical open-loop schedules")
	}
}

// TestOpenLoopRateFidelity checks that at low utilization (no-op
// operations, plenty of workers) the achieved completion rate tracks
// the requested arrival rate. Generous bounds keep it robust to CI
// scheduling noise: the driver can never finish before the schedule
// ends (achievement <= ~1) and must not fall behind by more than 2x.
func TestOpenLoopRateFidelity(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	mix := []MixItem{{Name: "noop", Weight: 1, Run: func(Params) error { return nil }}}
	for _, arrival := range []ArrivalProcess{ArrivalFixed, ArrivalPoisson} {
		res := RunMix(nil, info, mix, DriverConfig{
			Clients: 4, OpsPerClient: 250, Seed: 1,
			Mode: ModeOpen, RateOpsPerSec: 5000, Arrival: arrival,
		})
		if res.Ops != 1000 {
			t.Fatalf("%v: ops = %d, want 1000", arrival, res.Ops)
		}
		if res.Intended.Count() != res.Ops {
			t.Errorf("%v: intended histogram has %d samples, want %d", arrival, res.Intended.Count(), res.Ops)
		}
		ach := res.Rate.Achievement()
		if ach < 0.5 || ach > 1.05 {
			t.Errorf("%v: achieved %.1f of %g offered ops/s (%.0f%%), want 50%%-105%%",
				arrival, res.Rate.Achieved, res.Rate.Offered, 100*ach)
		}
		// Intended latency includes queueing behind the schedule, so it
		// can never undercut service latency.
		if res.Intended.Percentile(50) < res.Latency.Percentile(50) {
			t.Errorf("%v: intended p50 %v < service p50 %v", arrival,
				res.Intended.Percentile(50), res.Latency.Percentile(50))
		}
	}
}

// TestOpenLoopExposesCoordinatedOmission is the acceptance check for
// the coordinated-omission fix: drive the same fixed-cost workload
// closed-loop and open-loop at ~2x the engine's capacity. The closed
// loop self-throttles, so its p99 stays near the service time; the
// open loop keeps arrivals on schedule, the backlog grows, and the
// intended p99 must blow past the closed-loop p99.
func TestOpenLoopExposesCoordinatedOmission(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	slow := func(Params) error { time.Sleep(time.Millisecond); return nil }
	mix := []MixItem{{Name: "S", Weight: 1, Run: slow}}
	base := DriverConfig{Clients: 2, OpsPerClient: 100, Seed: 9}

	closed := RunMix(nil, info, mix, base)
	openCfg := base
	openCfg.Mode = ModeOpen
	openCfg.RateOpsPerSec = 4000 // capacity is ~2 workers / 1ms = ~2000 ops/s
	open := RunMix(nil, info, mix, openCfg)

	closedP99 := closed.Latency.Percentile(99)
	intendedP99 := open.Intended.Percentile(99)
	if intendedP99 < 3*closedP99 {
		t.Errorf("open-loop intended p99 %v not >> closed-loop p99 %v at saturation",
			intendedP99, closedP99)
	}
	// The service-time histogram must NOT show the backlog — that is
	// exactly what makes closed-loop-style measurement misleading.
	if sp99 := open.Latency.Percentile(99); sp99 >= intendedP99 {
		t.Errorf("open-loop service p99 %v >= intended p99 %v; queueing delay leaked into service time",
			sp99, intendedP99)
	}
	if open.Rate.Achievement() > 0.9 {
		t.Errorf("achieved %.0f%% of an offered rate 2x over capacity; saturation never happened",
			100*open.Rate.Achievement())
	}
	if closed.Intended.Count() != 0 {
		t.Errorf("closed-loop run recorded %d intended samples, want 0", closed.Intended.Count())
	}
}

// TestZeroBudgetScheduleIsEmpty pins the degenerate count bound: a
// config with no duration and a zero op budget yields an empty
// schedule, not an unbounded generator.
func TestZeroBudgetScheduleIsEmpty(t *testing.T) {
	info := Info{Customers: 10, Products: 10, Orders: 10}
	mix := []MixItem{{Name: "A", Weight: 1}}
	ops := buildOpenSchedule(info, mix, DriverConfig{Mode: ModeOpen, RateOpsPerSec: 1000}, 1)
	if len(ops) != 0 {
		t.Fatalf("zero-budget schedule generated %d arrivals, want 0", len(ops))
	}
}

// TestLazyScheduleDeterminism verifies the duration-bounded lazy
// schedule is a prefix-stable pure function of the config: the run
// with the longer horizon reproduces the shorter run's arrivals
// exactly, then continues. (FreshIDs use the nonce passed in, so two
// materializations with one nonce are comparable verbatim.)
func TestLazyScheduleDeterminism(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	mix := []MixItem{{Name: "A", Weight: 3}, {Name: "B", Weight: 1}}
	cfg := DriverConfig{
		Clients: 2, Theta: 0.4, Seed: 21,
		Mode: ModeOpen, RateOpsPerSec: 2000, Duration: 100 * time.Millisecond,
	}
	short := buildOpenSchedule(info, mix, cfg, 5)
	if len(short) == 0 {
		t.Fatal("duration-bounded schedule generated no arrivals")
	}
	for _, op := range short {
		if op.due >= cfg.Duration {
			t.Fatalf("arrival at %v scheduled past the %v horizon", op.due, cfg.Duration)
		}
	}
	long := cfg
	long.Duration = 200 * time.Millisecond
	full := buildOpenSchedule(info, mix, long, 5)
	if len(full) <= len(short) {
		t.Fatalf("longer horizon generated %d arrivals, want > %d", len(full), len(short))
	}
	for i := range short {
		if short[i] != full[i] {
			t.Fatalf("same-seed lazy schedules diverge at op %d:\n  %+v\n  %+v", i, short[i], full[i])
		}
	}
}

// TestDurationBoundedWallTime is the drain-deadline check: a mix
// offered at ~10x capacity would need several seconds to drain its
// backlog, but a duration-bounded run must come back by the drain
// deadline with the abandoned arrivals counted as dropped.
func TestDurationBoundedWallTime(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	slow := func(Params) error { time.Sleep(5 * time.Millisecond); return nil }
	mix := []MixItem{{Name: "S", Weight: 1, Run: slow}}
	dur := 250 * time.Millisecond
	res := RunMix(nil, info, mix, DriverConfig{
		Clients: 2, Seed: 13,
		Mode: ModeOpen, RateOpsPerSec: 4000, Arrival: ArrivalFixed, Duration: dur,
	})
	// Capacity is ~400 ops/s, offered 4000 for 250ms => ~1000 arrivals,
	// an unbounded drain of ~2.5s. The deadline is dur*1.5+250ms =
	// 625ms; allow generous scheduling slack on top.
	if res.Elapsed > 1300*time.Millisecond {
		t.Errorf("duration-bounded run took %v, want well under the unbounded ~2.5s drain", res.Elapsed)
	}
	if res.Elapsed < dur {
		t.Errorf("run finished in %v, before the %v arrival horizon closed", res.Elapsed, dur)
	}
	if res.Dropped == 0 {
		t.Error("saturating duration-bounded run dropped nothing; drain deadline not applied")
	}
	if res.Ops == 0 {
		t.Error("no operations completed")
	}
	if res.Intended.Count() != res.Ops {
		t.Errorf("intended samples %d != completed ops %d (dropped ops must not be observed)",
			res.Intended.Count(), res.Ops)
	}
}

// TestPerOpIntendedPercentiles pins the per-op-class intended
// contract: populated (and >= service) in open mode, absent in closed
// mode — same shape as the aggregate histograms.
func TestPerOpIntendedPercentiles(t *testing.T) {
	info := Info{Customers: 100, Products: 50, Orders: 200}
	mix := []MixItem{
		{Name: "A", Weight: 1, Run: func(Params) error { return nil }},
		{Name: "B", Weight: 1, Run: func(Params) error { time.Sleep(200 * time.Microsecond); return nil }},
	}
	closed := RunMix(nil, info, mix, DriverConfig{Clients: 2, OpsPerClient: 40, Seed: 6})
	for name, h := range closed.PerOp {
		if h.Intended.Count() != 0 {
			t.Errorf("closed-loop per-op %q has %d intended samples, want 0", name, h.Intended.Count())
		}
	}
	cs := closed.Summary()
	for _, op := range cs.PerOp {
		if op.IntendedP50NS != 0 || op.IntendedP99NS != 0 {
			t.Errorf("closed-loop summary op %q has intended percentiles: %+v", op.Name, op)
		}
	}
	open := RunMix(nil, info, mix, DriverConfig{
		Clients: 2, OpsPerClient: 40, Seed: 6, Mode: ModeOpen, RateOpsPerSec: 5000,
	})
	for name, h := range open.PerOp {
		if h.Intended.Count() != h.Service.Count() {
			t.Errorf("open-loop per-op %q intended samples %d != service %d",
				name, h.Intended.Count(), h.Service.Count())
		}
	}
	os := open.Summary()
	for _, op := range os.PerOp {
		if op.Count == 0 {
			continue
		}
		if op.IntendedP50NS <= 0 || op.IntendedP99NS <= 0 {
			t.Errorf("open-loop summary op %q missing intended percentiles: %+v", op.Name, op)
		}
		if op.IntendedP99NS < op.P99NS/2 {
			t.Errorf("open-loop op %q intended p99 %v implausibly below service p99 %v",
				op.Name, op.IntendedP99NS, op.P99NS)
		}
	}
}
