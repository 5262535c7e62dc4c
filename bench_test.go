package udbench

// The two scaling curves CI's bench-multicore job gates on. Everything
// else that used to be benchmarked here is measured by `udbench run
// <id>` (the experiment tables) and by the repo benchmark in bench/.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/udbms"
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

// BenchmarkSerializableReadMostly measures the serializable (locking)
// read mode under a 95/5 read/write mix on the unified engine's KV
// store. Reads take shared locks held to commit; with the reader-count
// fast path an uncontended shared acquire is a single CAS, so the
// curve over client counts isolates the lock table's read scalability
// from the snapshot path (which never locks at all).
func BenchmarkSerializableReadMostly(b *testing.B) {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, clients := range counts {
		if seen[clients] {
			continue
		}
		seen[clients] = true
		clients := clients
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			db := udbms.Open()
			store := db.KV
			const nkeys = 512
			keys := make([]string, nkeys)
			for k := range keys {
				keys[k] = fmt.Sprintf("feedback/bench/%04d", k)
				if err := store.Put(nil, keys[k], mmvalue.Int(int64(k))); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the shared-lock entries so the steady state below
			// measures the resident fast path, not first-touch setup.
			if err := db.RunTx(func(tx *txn.Tx) error {
				for _, k := range keys {
					if _, _, err := store.GetShared(tx, k); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			const opsPerClient = 400
			b.ResetTimer()
			var ops int64
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := uint64(c*2654435761 + i + 1)
						next := func(n int) int {
							rng = rng*6364136223846793005 + 1442695040888963407
							return int(rng>>33) % n
						}
						for j := 0; j < opsPerClient; j++ {
							k := keys[next(nkeys)]
							var err error
							if j%20 == 19 { // 5% writes
								err = db.RunTx(func(tx *txn.Tx) error {
									return store.Put(tx, k, mmvalue.Int(int64(j)))
								})
							} else { // 95% serializable reads
								err = db.RunTx(func(tx *txn.Tx) error {
									_, _, err := store.GetShared(tx, k)
									return err
								})
							}
							if err != nil {
								b.Errorf("client %d: %v", c, err)
								return
							}
						}
					}(c)
				}
				wg.Wait()
				ops += int64(clients * opsPerClient)
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
