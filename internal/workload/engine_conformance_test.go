package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/federation"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/udbms"
)

// conformanceEngine is one native engine with the stores it runs over,
// so the tests can look underneath it.
type conformanceEngine struct {
	Engine
	st datagen.Target
}

// activeTxns sums the open transactions of every manager under the
// engine (one shared manager on udbms, five on the federation).
func (ce conformanceEngine) activeTxns() int {
	seen := map[*txn.Manager]bool{}
	n := 0
	for _, m := range []*txn.Manager{
		ce.st.Relational.Manager(), ce.st.Docs.Manager(), ce.st.Graph.Manager(), ce.st.KV.Manager(), ce.st.XML.Manager(),
	} {
		if !seen[m] {
			seen[m] = true
			n += m.ActiveCount()
		}
	}
	return n
}

// newConformanceEngines builds both native engines. Loaded engines hold
// the dataset, so every op class has data to succeed on; unloaded ones
// are empty, so every body that needs a table fails.
func newConformanceEngines(t *testing.T, loaded bool) []conformanceEngine {
	t.Helper()
	db, f := udbms.Open(), federation.Open()
	engines := []conformanceEngine{
		{NewUDBMSEngine(db), db.Stores()},
		{NewFederationEngine(f), f.Stores()},
	}
	if !loaded {
		return engines
	}
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 1234})
	for _, ce := range engines {
		if err := ds.Load(ce.st); err != nil {
			t.Fatal(err)
		}
	}
	return engines
}

// TestNativeEngineConformance runs every op class through both native
// engines three ways — on loaded stores with valid parameters, on loaded
// stores with unknown ids, on empty stores — and pins what the one
// adapter promises for all of them: no transaction outlives the call
// whether the body succeeded or failed, and failures surface.
func TestNativeEngineConformance(t *testing.T) {
	type opClass struct {
		name string
		run  func(e Engine, p Params) error
		// failsUnknown / failsEmpty: the body errors on unknown ids /
		// on stores without the dataset (reads of a missing record are
		// empty results, not errors, so not every class can fail).
		failsUnknown, failsEmpty bool
	}
	// Q11 is not here: its graph walk finds no friends on an empty store
	// and returns before it names the table.
	needsCustomerTable := map[QueryID]bool{Q1: true, Q4: true, Q8: true, Q10: true, Q12: true, Q13: true}
	var classes []opClass
	for _, q := range AllQueries {
		classes = append(classes, opClass{
			name:       q.String(),
			run:        func(e Engine, p Params) error { _, err := e.RunQuery(q, p); return err },
			failsEmpty: needsCustomerTable[q],
		})
	}
	classes = append(classes,
		opClass{name: "T1", run: Engine.OrderUpdate, failsUnknown: true, failsEmpty: true},
		opClass{name: "T1-once", run: Engine.OrderUpdateOnce, failsUnknown: true, failsEmpty: true},
		opClass{name: "T2", run: Engine.NewOrder, failsUnknown: true, failsEmpty: true},
		opClass{name: "T3", run: Engine.WriteFeedback, failsUnknown: true, failsEmpty: true},
		opClass{name: "T4", run: func(e Engine, p Params) error { _, err := e.SnapshotRead(p); return err }},
		opClass{name: "T5-once", run: Engine.StockTransferOnce, failsUnknown: true, failsEmpty: true},
	)
	good := Params{
		CustomerID: 1, OrderID: datagen.OrderID(1), ProductID: datagen.ProductID(1), ProductID2: datagen.ProductID(2),
		City: "Helsinki", TopN: 10, Threshold: 200, Rating: 3,
	}
	// Unknown ids everywhere a write body looks a record up; T2's
	// failure is its duplicate key (an order id the dataset already has).
	unknown := good
	unknown.CustomerID, unknown.OrderID, unknown.ProductID, unknown.ProductID2 = 1<<30, "o-missing", "p-missing", "p-missing2"
	unknown.FreshID = datagen.OrderID(1)

	loaded, empty := newConformanceEngines(t, true), newConformanceEngines(t, false)
	fresh := 0
	for i := range loaded {
		for _, c := range classes {
			t.Run(loaded[i].Name()+"/"+c.name, func(t *testing.T) {
				check := func(label string, ce conformanceEngine, p Params, wantErr bool) {
					t.Helper()
					fresh++
					if p.FreshID == "" {
						p.FreshID = fmt.Sprintf("o-conf-%04d", fresh)
					}
					err := c.run(ce, p)
					if (err != nil) != wantErr {
						t.Errorf("%s: err = %v, want error %v", label, err, wantErr)
					}
					if n := ce.activeTxns(); n != 0 {
						t.Errorf("%s: %d transactions still active after the call (err %v)", label, n, err)
					}
				}
				check("valid params", loaded[i], good, false)
				check("unknown ids", loaded[i], unknown, c.failsUnknown)
				check("empty stores", empty[i], good, c.failsEmpty)
			})
		}
	}
}

// TestOnceVariantsSurfaceDeadlock builds a real two-document lock cycle
// against each engine's document store and pins the retry switch of the
// write discipline: the single-attempt ops (T1-once, T5-once) come back
// with txn.ErrDeadlock, the retrying T1 rides out the same cycle and
// commits. The lock table fails the transaction whose wait closes the
// cycle, so the op is paused after its first lock until a rival, which
// already holds the op's second document, queues for the first; the
// op's second request then closes the cycle.
func TestOnceVariantsSurfaceDeadlock(t *testing.T) {
	p := Params{OrderID: datagen.OrderID(1), ProductID: datagen.ProductID(1), ProductID2: datagen.ProductID(2), Rating: 3}
	for _, ce := range newConformanceEngines(t, true) {
		order, _ := ce.st.Docs.Collection("orders").Get(nil, p.OrderID)
		items, _ := order.MustObject().GetOr("items", mmvalue.Null).AsArray()
		linePID, _ := items[0].MustObject().Get("product_id")
		// Each op locks first, then second, one store request (one Hop)
		// before each; the rival holds second and then asks for first.
		cases := []struct {
			name                 string
			run                  func(*nativeEngine, Params) error
			firstColl, firstID   string
			secondColl, secondID string
			wantDeadlock         bool
		}{
			{"T5-once", (*nativeEngine).StockTransferOnce, "products", p.ProductID, "products", p.ProductID2, true},
			{"T1-once", (*nativeEngine).OrderUpdateOnce, "orders", p.OrderID, "products", linePID.MustString(), true},
			{"T1", (*nativeEngine).OrderUpdate, "orders", p.OrderID, "products", linePID.MustString(), false},
		}
		for _, c := range cases {
			t.Run(ce.Name()+"/"+c.name, func(t *testing.T) {
				mgr := ce.st.Docs.Manager()
				touch := func(tx *txn.Tx, coll, id string) error {
					return ce.st.Docs.Collection(coll).Update(tx, id, func(d mmvalue.Value) (mmvalue.Value, error) { return d, nil })
				}
				gate := &pauseAtSecondHop{discipline: ce.Engine.(discipline), paused: make(chan struct{}), resume: make(chan struct{}), rivalIn: make(chan struct{})}
				rival := mgr.Begin()
				if err := touch(rival, c.secondColl, c.secondID); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- c.run(&nativeEngine{st: ce.st, sut: gate}, p) }()
				select {
				case <-gate.paused:
				case <-time.After(5 * time.Second):
					t.Fatal("op never reached its second lock")
				}
				waits := mgr.LockStats().Waits
				rivalDone := make(chan error, 1)
				go func() { rivalDone <- touch(rival, c.firstColl, c.firstID) }()
				for deadline := time.Now().Add(5 * time.Second); mgr.LockStats().Waits == waits; {
					if time.Now().After(deadline) {
						t.Fatal("rival never blocked on the op's lock")
					}
					time.Sleep(100 * time.Microsecond)
				}
				// The op's second request closes the cycle, so the op's
				// transaction is the victim, which lets the rival through.
				close(gate.resume)
				err := <-rivalDone
				close(gate.rivalIn)
				if err != nil {
					t.Fatalf("rival was the victim: %v", err)
				}
				if _, err := rival.Commit(); err != nil {
					t.Fatal(err)
				}
				err = <-done
				if got := errors.Is(err, txn.ErrDeadlock); got != c.wantDeadlock {
					t.Errorf("err = %v; surfaced deadlock %v, want %v", err, got, c.wantDeadlock)
				}
				if !c.wantDeadlock && err != nil {
					t.Errorf("retrying op failed: %v", err)
				}
				if n := ce.activeTxns(); n != 0 {
					t.Errorf("%d transactions still active", n)
				}
			})
		}
	}
}

// pauseAtSecondHop is a write discipline that holds the first attempt
// at its second store request (after its first lock, before its second)
// until resume closes, signalling paused when it gets there. A retry
// starts only once rivalIn closes, when the rival holds both documents:
// a retry that took the first document before the rival was granted it
// would wait on the rival, and the rival's wait would then close the
// cycle and make the rival the victim.
type pauseAtSecondHop struct {
	discipline
	paused, resume, rivalIn chan struct{}
	once                    sync.Once
	attempts                int // written by the op's goroutine only
}

func (d *pauseAtSecondHop) write(retries int, fn func(session) error) error {
	return d.discipline.write(retries, func(s session) error {
		if d.attempts++; d.attempts > 1 {
			<-d.rivalIn
		}
		return fn(&pausingSession{session: s, d: d})
	})
}

type pausingSession struct {
	session
	d    *pauseAtSecondHop
	hops int
}

func (s *pausingSession) Hop() {
	s.session.Hop()
	if s.hops++; s.hops == 2 {
		s.d.once.Do(func() { close(s.d.paused); <-s.d.resume })
	}
}

// hopCounter is a federation read session whose hop is a counter instead
// of a sleep: latest-per-store handles, no join cache, every request the
// bodies and the executor issue counted once.
type hopCounter struct {
	fedReadSession
	hops *int
}

func (s hopCounter) Hop()                      { *s.hops++ }
func (s hopCounter) pipeline() *udbms.Pipeline { return udbms.PipelineOver(s.f.Stores(), s) }

// TestFederationHopCounts pins the federation's cost model: how many
// store requests each query issues under hop-per-request. A join is
// either index probes, one request per probe row, or one build-side
// scan, one request in all; across a hop the executor sends probes only
// for a single-row probe set (Q1), so every other join costs one
// request however many rows it probes.
func TestFederationHopCounts(t *testing.T) {
	fx := newFixture(t, 0.05)
	st := fx.fed.F.Stores()
	gen := NewParamGen(fx.info, 3, 0)
	for trial := 0; trial < 4; trial++ {
		p := gen.Next()
		self := graph.VID(datagen.CustomerVID(p.CustomerID))
		friends := func(k int) int { return len(st.Graph.KHop(nil, []graph.VID{self}, k, graph.Both, "knows")) }
		myOrders := st.Docs.Collection("orders").Find(nil, document.Eq("customer_id", p.CustomerID))
		// Q10 fetches every line's product and every order's invoice.
		chain := 0
		for _, o := range myOrders {
			items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
			chain += len(items) + 1
		}
		connected := map[string]bool{}
		for _, e := range fx.ds.KnowsEdges {
			connected[e.From], connected[e.To] = true, true
		}
		q11 := 1 // the graph walk; no friends, no scan
		if friends(2) > 0 {
			q11 = 3 // + the id-set seed scan + one orders build
		}
		want := map[QueryID]int{
			Q1:  3, // customer row, one orders probe, feedback prefix
			Q2:  1 + friends(1),
			Q3:  2, // feedback seed, one orders scan
			Q4:  2, // city seed, one orders build
			Q5:  1,
			Q6:  2, // the buyers, one multi-source walk from them
			Q7:  2, // orders seed, one invoice scan
			Q8:  2, // orders seed, one customer build
			Q9:  1 + min(p.TopN, len(connected)),
			Q10: 2 + chain + 1,
			Q11: q11,
			Q12: 2,
			Q13: 2, // orders seed, one customer build for the top N
		}
		for _, q := range AllQueries {
			def, _ := q.def()
			hops := 0
			if _, err := def.body(st, hopCounter{fedReadSession{fx.fed.F}, &hops}, p); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if hops != want[q] {
				t.Errorf("%s: %d hops, want %d (params %+v)", q, hops, want[q], p)
			}
		}
	}
}

// TestFederationJoinQueriesUnderWriters runs the join queries on the
// federation while T1 and T2 commit underneath them (T2 adds a graph
// edge, which Q9's edge-end seed scans). The executor reads
// each store's latest state with no snapshot, so it sees rows appear and
// change mid-query: under -race this must stay free of races, hangs and
// errors (answers may be torn — that is the federation's discipline).
func TestFederationJoinQueriesUnderWriters(t *testing.T) {
	fx := newFixture(t, 0.04)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writerErrs := make(chan error, 2)
	var commits atomic.Int64
	for w, write := range []func(Params) error{fx.fed.OrderUpdate, fx.fed.NewOrder} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewParamGen(fx.info, uint64(100+w), 0.5)
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				p := gen.Next()
				p.FreshID = gen.NewOrderID(0, w, seq)
				if err := write(p); err != nil {
					writerErrs <- err
					return
				}
				commits.Add(1)
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		gen := NewParamGen(fx.info, 5, 0)
		for round := 0; round < 40; round++ {
			p := gen.Next()
			for _, q := range []QueryID{Q1, Q4, Q8, Q9, Q11, Q12, Q13} {
				if _, err := fx.fed.RunQuery(q, p); err != nil {
					done <- fmt.Errorf("%s: %w", q, err)
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(60 * time.Second):
		t.Error("join queries hung under concurrent writers")
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErrs:
		t.Errorf("writer: %v", err)
	default:
	}
	if commits.Load() == 0 {
		t.Error("no writer committed while the queries ran")
	}
}
