package udbench

// The scaling curve CI's bench-multicore job gates on. Everything else
// that used to be benchmarked here is measured by `udbench run <id>`
// (the experiment tables) and by the repo benchmark in bench/.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"udbench/internal/workload"
)

// BenchmarkMixScaling measures how StandardMix throughput scales with
// closed-loop clients (1, 2, 4, NumCPU) on both engines — the scaling
// curve behind the striped lock table. Each sub-benchmark rebuilds its
// engine so write history never carries across client counts; ops/s is
// the figure of merit.
func BenchmarkMixScaling(b *testing.B) {
	suite, _ := workload.SuiteByName(workload.DefaultSuite)
	legs := []struct {
		name string
		hop  time.Duration
	}{{"udbms", 0}, {"federation", 20 * time.Microsecond}}
	counts := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, clients := range counts {
		if seen[clients] {
			continue
		}
		seen[clients] = true
		for _, leg := range legs {
			b.Run(fmt.Sprintf("clients%d/%s", clients, leg.name), func(b *testing.B) {
				ds := suite.Generate(0.05, 42)
				e, err := workload.NewBackend(leg.name, ds, workload.BackendOptions{HopLatency: leg.hop})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var ops int64
				for i := 0; i < b.N; i++ {
					res := workload.RunMix(e, ds.Info(), workload.StandardMix(e), workload.DriverConfig{
						Clients: clients, OpsPerClient: 50, Theta: 0.5, Seed: uint64(i),
					})
					ops += res.Ops
				}
				b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}
