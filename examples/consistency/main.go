// Consistency: the benchmark's consistency metrics in action. The demo
// runs the replica probe in strong mode (reads from the primary) and
// in eventual mode under increasing replication lag, printing the
// precise metrics the paper calls for — read-your-writes violations,
// monotonic-read violations, version and time staleness, and
// convergence time. It then runs the cross-model torn-read probe on
// the unified engine vs the federated baseline.
package main

import (
	"fmt"
	"log"
	"time"

	"udbench/internal/consistency"
	"udbench/internal/datagen"
	"udbench/internal/federation"
	"udbench/internal/metrics"
	"udbench/internal/udbms"
	"udbench/internal/workload"
)

func main() {
	t := metrics.NewTable("Replica consistency metrics",
		"mode", "lag", "RYW viol", "monotonic viol", "stale (versions)", "stale (time)", "convergence")
	for _, cfg := range []struct {
		mode string
		lag  time.Duration
		prim bool
	}{
		{"strong", 50 * time.Millisecond, true},
		{"eventual", 0, false},
		{"eventual", 10 * time.Millisecond, false},
		{"eventual", 50 * time.Millisecond, false},
		{"eventual", 200 * time.Millisecond, false},
	} {
		res := consistency.RunProbe(consistency.ProbeConfig{
			Clients: 4, Keys: 16, OpsPerClient: 100, Replicas: 2,
			Lag: cfg.lag, OpGap: time.Millisecond, ReadFromPrimary: cfg.prim, Seed: 11,
		})
		r := res.Report
		t.AddRow(cfg.mode, cfg.lag, r.RYWViolations, r.MonotonicViolations,
			fmt.Sprintf("%.2f", r.VersionStalenessMean), r.TimeStalenessMean, res.Convergence)
	}
	fmt.Println(t.String())

	// Cross-model atomicity: unified engine vs federation under
	// concurrent order updates and snapshot reads.
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.03, Seed: 11})
	db := udbms.Open()
	if err := ds.Load(db.Stores()); err != nil {
		log.Fatal(err)
	}
	fed := federation.Open()
	if err := ds.Load(fed.Stores()); err != nil {
		log.Fatal(err)
	}
	info := workload.InfoOf(ds)
	t2 := metrics.NewTable("Cross-model torn reads (concurrent T1 writers + T4 readers)",
		"engine", "reads", "torn")
	for _, e := range []workload.Engine{
		workload.NewUDBMSEngine(db), workload.NewFederationEngine(fed),
	} {
		res := workload.RunTornReadProbe(e, info, workload.DriverConfig{
			Clients: 6, OpsPerClient: 60, Theta: 1.0, Seed: 11,
		})
		t2.AddRow(res.Engine, res.Reads, res.Torn)
	}
	fmt.Println(t2.String())
	fmt.Println("the unified engine's single snapshot makes torn reads impossible;")
	fmt.Println("the federation reads each store's independent latest state.")
}
