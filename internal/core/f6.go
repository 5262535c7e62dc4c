package core

import (
	"fmt"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/durable"
	"udbench/internal/metrics"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// f6Config sizes the durability experiment.
type f6Config struct {
	opsLadder []int         // write-transaction counts for the recovery ladder
	clients   int           // closed-loop workers feeding the log
	theta     float64       // Zipf skew of parameter selection
	syncLat   time.Duration // injected device durability-barrier cost
	sweep     f5Config      // rate ladder for the fsync-policy knee
}

func f6ConfigFor(cfg Config) f6Config {
	if cfg.Quick {
		return f6Config{
			opsLadder: []int{200, 400, 800}, clients: 4, theta: 0.5,
			syncLat: time.Millisecond,
			sweep: f5Config{baseRate: 200, factor: 4, maxSteps: 5, clients: 4, theta: 0.5,
				warmup: 100 * time.Millisecond, measure: 400 * time.Millisecond},
		}
	}
	return f6Config{
		opsLadder: []int{2000, 8000, 32000}, clients: 8, theta: 0.5,
		syncLat: 500 * time.Microsecond,
		sweep: f5Config{baseRate: 250, factor: 2, maxSteps: 10, clients: 8, theta: 0.5,
			warmup: time.Second, measure: 2 * time.Second},
	}
}

// durableTestbed provisions a durable unified engine on fsys: open (or
// recover), load the Figure-1 dataset through the logged write path,
// and wrap it for the workload driver with durability telemetry
// attached.
func durableTestbed(sf float64, seed uint64, fsys wal.FS, policy wal.SyncPolicy) (*durable.DB, *workload.UDBMSEngine, workload.Info, error) {
	d, err := durable.Open("f6", durable.Options{
		FS: fsys, Policy: policy, AsyncInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, workload.Info{}, err
	}
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
	if err := ds.Load(d.Stores()); err != nil {
		return nil, nil, workload.Info{}, err
	}
	eng := workload.NewUDBMSEngine(d.DB)
	eng.Durable = d
	return d, eng, workload.InfoOf(ds), nil
}

// writeMix is the log-feeding mix: only the transaction classes that
// append commit records (queries would dilute the log growth the
// recovery ladder measures).
func writeMix(e workload.Engine) []workload.MixItem {
	return []workload.MixItem{
		{Name: "T1", Weight: 40, Run: e.OrderUpdate},
		{Name: "T2", Weight: 30, Run: e.NewOrder},
		{Name: "T3", Weight: 30, Run: e.WriteFeedback},
	}
}

// f6RecoveryRow is one measured recovery: a write history of Ops
// transactions recovered either from the log alone or from a snapshot
// plus the log tail.
type f6RecoveryRow struct {
	Mode     string // "log" | "snapshot+tail"
	Ops      int
	LogBytes int64
	Records  int
	SnapOps  int
	Elapsed  time.Duration
	// MBps is replay bandwidth over the valid log prefix.
	MBps float64
}

// f6RecoverySweep measures recovery time as a function of log size. Per
// rung it builds a fresh in-memory durable engine, loads the dataset,
// runs n logged write transactions, shuts down, and times durable.Open
// rebuilding the state (recovery has no clean-shutdown shortcut: it
// always replays, so a clean close measures the same path a crash
// exercises, minus the torn tail the crash tests cover). The
// snapshot+tail variant checkpoints right after the load, so its replay
// covers only the n transactions while the log-only variant also
// replays the load.
func f6RecoverySweep(cfg Config, p f6Config) ([]f6RecoveryRow, error) {
	var rows []f6RecoveryRow
	for _, n := range p.opsLadder {
		for _, mode := range []string{"log", "snapshot+tail"} {
			mem := wal.NewMemFS()
			d, eng, info, err := durableTestbed(cfg.SF, cfg.Seed, mem, wal.SyncGroup)
			if err != nil {
				return nil, err
			}
			if mode == "snapshot+tail" {
				if _, err := d.Checkpoint(); err != nil {
					return nil, err
				}
			}
			dc := workload.DriverConfig{
				Clients: p.clients, OpsPerClient: n / p.clients,
				Theta: p.theta, Seed: cfg.Seed,
			}
			res := workload.RunMix(eng, info, writeMix(eng), dc)
			if res.Errors > res.Aborts {
				return nil, fmt.Errorf("f6: %d non-abort errors feeding the log", res.Errors-res.Aborts)
			}
			if err := d.Close(); err != nil {
				return nil, err
			}
			r, err := durable.Open("f6", durable.Options{FS: mem})
			if err != nil {
				return nil, fmt.Errorf("f6: recovery (%s, %d ops): %w", mode, n, err)
			}
			rec := r.Recovery
			r.Close()
			row := f6RecoveryRow{
				Mode: mode, Ops: n,
				LogBytes: rec.LogBytes, Records: rec.Records,
				SnapOps: rec.SnapshotOps, Elapsed: rec.Elapsed,
			}
			if rec.Elapsed > 0 {
				row.MBps = float64(rec.LogBytes) / rec.Elapsed.Seconds() / (1 << 20)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// f6PolicySweep runs the open-loop rate ladder against three durable
// engines that differ only in fsync policy, over a filesystem with an
// injected durability-barrier cost. SyncAlways pays one barrier per
// commit, so its knee sits near 1/barrier; group commit amortizes the
// barrier over the batch the watermark ring accumulated; async removes
// it from the commit path entirely (trading the durability of the last
// interval). The returned rows carry each run's wal telemetry, so the
// knee digest can show the amortization (appends per batch) directly.
func f6PolicySweep(cfg Config, p f6Config) ([]f5Row, error) {
	var engines []sweepEngine
	var info workload.Info
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncGroup, wal.SyncAsync} {
		ffs := wal.NewFailFS(wal.NewMemFS())
		_, eng, inf, err := durableTestbed(cfg.SF, cfg.Seed, ffs, policy)
		if err != nil {
			return nil, err
		}
		// The barrier cost arms only after the (group-flushed) load, so
		// every policy starts the sweep from an identical dataset.
		ffs.SetSyncLatency(p.syncLat)
		engines = append(engines, sweepEngine{policy.String(), eng})
		info = inf
	}
	return rateSweep(p.sweep, info, cfg.Seed, engines), nil
}

// runF6 is the durability experiment: how long recovery takes as the
// log grows (and how much a snapshot shortens it), and where each fsync
// policy's saturation knee sits when the durability barrier has a real
// device cost.
func runF6(cfg Config) ([]*metrics.Table, error) {
	p := f6ConfigFor(cfg)
	recRows, err := f6RecoverySweep(cfg, p)
	if err != nil {
		return nil, err
	}
	polRows, err := f6PolicySweep(cfg, p)
	if err != nil {
		return nil, err
	}
	return f6Tables(cfg, p, recRows, polRows), nil
}

// f6Tables renders the recovery ladder, the policy sweep and its knee
// digest.
func f6Tables(cfg Config, p f6Config, recRows []f6RecoveryRow, polRows []f5Row) []*metrics.Table {
	rt := metrics.NewTable(
		fmt.Sprintf("F6: recovery time vs log size (group commit, %d writers), SF %g", p.clients, cfg.SF),
		"mode", "write txns", "log KiB", "records replayed", "snapshot ops", "recovery", "replay MB/s")
	for _, r := range recRows {
		rt.AddRow(r.Mode, r.Ops, r.LogBytes/1024, r.Records, r.SnapOps,
			r.Elapsed, fmt.Sprintf("%.1f", r.MBps))
	}
	sweep := metrics.NewTable(
		fmt.Sprintf("F6: fsync policy vs offered rate (open loop, %v barrier cost), SF %g",
			p.syncLat, cfg.SF),
		"policy", "offered", "achieved", "ach%", "int p99", "svc p99", "fsyncs", "batches", "dropped")
	for _, r := range polRows {
		var fsyncs, batches uint64
		if r.Durability != nil {
			fsyncs, batches = r.Durability.Fsyncs, r.Durability.Batches
		}
		sweep.AddRow(r.Engine, r.Offered, r.Achieved,
			fmt.Sprintf("%.0f%%", 100*r.Achieved/r.Offered),
			r.IntP99, r.SvcP99, fsyncs, batches, r.Dropped)
	}
	knee := metrics.NewTable(
		fmt.Sprintf("F6: fsync-policy knee (achieved/offered < %.0f%%)", 100*f5KneeThreshold),
		"policy", "knee ops/s", "capacity ops/s", "int p99 @ knee", "appends/batch", "fsyncs/commit")
	for _, policy := range []string{"always", "group", "async"} {
		d, ok := kneeOf(polRows, policy)
		if !ok {
			continue
		}
		// Amortization ratios come from the policy's best unsaturated
		// rung: appends/batch is the group-commit batch size the
		// watermark ring accumulated, fsyncs/commit the barrier cost per
		// commit — 1 for always, 1/batch for group, ~0 for async.
		perBatch, perCommit := 0.0, 0.0
		if w := d.best.Durability; w != nil {
			if w.Batches > 0 {
				perBatch = float64(w.Appends) / float64(w.Batches)
			}
			if w.Appends > 0 {
				perCommit = float64(w.Fsyncs) / float64(w.Appends)
			}
		}
		knee.AddRow(policy, d.rate, d.best.Achieved, d.at.IntP99,
			fmt.Sprintf("%.1f", perBatch), fmt.Sprintf("%.2f", perCommit))
	}
	return []*metrics.Table{rt, sweep, knee}
}
