package relbe

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/server"
	"udbench/internal/udbms"
	"udbench/internal/workload"
)

// buildPair loads one generated dataset into both the native unified
// engine and the relational backend.
func buildPair(t *testing.T, sf float64, seed uint64) (native, rel workload.Backend, info workload.Info) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
	db := udbms.Open()
	if err := ds.Load(db.Stores()); err != nil {
		t.Fatalf("load udbms: %v", err)
	}
	r, err := Open(ds)
	if err != nil {
		t.Fatalf("build relational backend: %v", err)
	}
	return workload.NewUDBMSEngine(db), r, workload.InfoOf(ds)
}

// TestQueryAgreement pins the comparative contract on the t2 dataset:
// for every query the relational backend advertises, its cardinality
// must equal the unified engine's on every draw — across seeds and
// scale factors, and on draws built to come back empty.
func TestQueryAgreement(t *testing.T) {
	for _, sf := range []float64{0.05, 0.1} {
		for _, seed := range []uint64{1234, 99} {
			t.Run(fmt.Sprintf("sf%v/seed%d", sf, seed), func(t *testing.T) {
				native, rel, info := buildPair(t, sf, seed)
				queries := rel.Capabilities().Queries
				if len(queries) == 0 {
					t.Fatal("relational backend advertises no queries")
				}
				agree := func(p workload.Params) map[workload.QueryID]int {
					t.Helper()
					got := map[workload.QueryID]int{}
					for _, q := range queries {
						want, err := native.RunQuery(q, p)
						if err != nil {
							t.Fatalf("%s udbms: %v", q, err)
						}
						n, err := rel.RunQuery(q, p)
						if err != nil {
							t.Fatalf("%s relational: %v", q, err)
						}
						if n != want {
							t.Errorf("%s: udbms=%d relational=%d (params %+v)", q, want, n, p)
						}
						got[q] = n
					}
					return got
				}
				gen := workload.NewParamGen(info, seed+3, 0.5)
				nonEmpty := map[workload.QueryID]bool{}
				for trial := 0; trial < 20; trial++ {
					for q, n := range agree(gen.Next()) {
						nonEmpty[q] = nonEmpty[q] || n > 0
					}
				}
				for _, q := range queries {
					if !nonEmpty[q] {
						t.Errorf("%s returned 0 on all 20 draws: the agreement is vacuous", q)
					}
				}
				// Draws that must come back empty: an unknown customer, a
				// city nobody lives in, a threshold no sum clears.
				p := gen.Next()
				p.CustomerID = info.Customers + 1000
				p.City = "Atlantis"
				p.Threshold = 1e15
				got := agree(p)
				for _, q := range []workload.QueryID{workload.Q1, workload.Q4, workload.Q12} {
					if got[q] != 0 {
						t.Errorf("%s on the empty draw = %d, want 0", q, got[q])
					}
				}
				p = gen.Next()
				p.Threshold = 1e15 // a real city, nobody that rich
				if got := agree(p); got[workload.Q4] != 0 {
					t.Errorf("Q4 with an unreachable threshold = %d, want 0", got[workload.Q4])
				}
			})
		}
	}
}

// advertisedCounts runs every query the backend advertises once with p.
func advertisedCounts(t *testing.T, be workload.Backend, p workload.Params) map[workload.QueryID]int {
	t.Helper()
	got := map[workload.QueryID]int{}
	for _, q := range be.Capabilities().Queries {
		n, err := be.RunQuery(q, p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got[q] = n
	}
	return got
}

// TestUnsupportedIsTypedAndTouchesNothing pins the capability
// contract: a query outside the descriptor, and a native transaction
// sent to the backend through the server, fail with the typed sentinel
// and leave every advertised query's answer as it was.
func TestUnsupportedIsTypedAndTouchesNothing(t *testing.T) {
	_, rel, info := buildPair(t, 0.05, 7)
	p := workload.NewParamGen(info, 5, 0.5).Next()
	before := advertisedCounts(t, rel, p)

	if _, err := rel.RunQuery(workload.Q2, p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("Q2 err = %v, want workload.ErrUnsupported", err)
	}
	if _, err := rel.RunQuery(workload.Q9, p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("Q9 err = %v, want workload.ErrUnsupported", err)
	}
	if _, ok := rel.(workload.TxnEngine); ok || rel.Capabilities().Transactions {
		t.Fatal("relational backend claims native transactions")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(lis, server.Config{Engine: rel, Info: info, Workers: 1})
	defer srv.Close()
	re, err := server.DialEngine(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.OrderUpdate(p); !errors.Is(err, workload.ErrUnsupported) {
		t.Errorf("served T1 err = %v, want workload.ErrUnsupported", err)
	}

	after := advertisedCounts(t, rel, p)
	for q, n := range before {
		if after[q] != n {
			t.Errorf("%s after the unsupported attempts = %d, want %d (data untouched)", q, after[q], n)
		}
	}
}

// TestRunMixOnRelationalBackend runs a mix of every advertised query
// through the unmodified driver, four concurrent clients: the run must
// be error-free and carry the partial-capability report, which names
// exactly the advertised queries.
func TestRunMixOnRelationalBackend(t *testing.T) {
	_, rel, info := buildPair(t, 0.05, 7)
	queries := rel.Capabilities().Queries
	var mix []workload.MixItem
	for _, q := range queries {
		mix = append(mix, workload.MixItem{Name: q.String(), Weight: 1, Run: func(p workload.Params) error {
			_, err := rel.RunQuery(q, p)
			return err
		}})
	}
	res := workload.RunMix(rel, info, mix, workload.DriverConfig{Clients: 4, OpsPerClient: 40, Theta: 0.7, Seed: 11})
	if res.Errors != 0 || res.Aborts != 0 {
		t.Fatalf("query mix on relational: %d errors, %d aborts", res.Errors, res.Aborts)
	}
	if res.Ops != 160 {
		t.Fatalf("ops = %d, want 160", res.Ops)
	}
	sum := res.Summary()
	if sum.Engine != "relational" {
		t.Errorf("summary engine = %q, want relational", sum.Engine)
	}
	caps := sum.BackendCapabilities
	if caps == nil {
		t.Fatal("partial backend must attach backend_capabilities")
	}
	if caps.Transactions || len(caps.Queries) != len(queries) {
		t.Errorf("capability report %+v, want no transactions and the %d advertised queries", caps, len(queries))
	}
	for i, q := range queries {
		if i < len(caps.Queries) && caps.Queries[i] != q.String() {
			t.Errorf("reported query %d = %s, want %s", i, caps.Queries[i], q)
		}
	}
}

// TestStandardMixDegradesToQueries pins what the standard mix becomes
// over a backend without native transactions: its supported query
// items instead of an error, here Q1 alone, on the t2 dataset.
func TestStandardMixDegradesToQueries(t *testing.T) {
	t.Run("t2", func(t *testing.T) {
		rel, err := Open(datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 1234}))
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.StandardMix(rel)
		if len(mix) != 1 || mix[0].Name != "Q1" {
			t.Fatalf("standard mix over relational has %d items, want [Q1] only", len(mix))
		}
		if err := mix[0].Run(workload.Params{CustomerID: 1}); err != nil {
			t.Errorf("Q1 through relational failed: %v", err)
		}
	})
}
