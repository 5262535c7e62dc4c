package server

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/federation"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// stubEngine is a controllable workload.Engine for protocol tests:
// every operation counts calls, sleeps opDelay, and returns failWith.
type stubEngine struct {
	calls    atomic.Int64
	opDelay  time.Duration
	failWith error
}

func (e *stubEngine) op() error {
	e.calls.Add(1)
	if e.opDelay > 0 {
		time.Sleep(e.opDelay)
	}
	return e.failWith
}

func (e *stubEngine) Name() string { return "stub" }
func (e *stubEngine) Capabilities() workload.Capabilities {
	return workload.FullCapabilities()
}
func (e *stubEngine) RunQuery(q workload.QueryID, p workload.Params) (int, error) {
	return int(q) * 10, e.op()
}
func (e *stubEngine) OrderUpdate(p workload.Params) error       { return e.op() }
func (e *stubEngine) OrderUpdateOnce(p workload.Params) error   { return e.op() }
func (e *stubEngine) StockTransferOnce(p workload.Params) error { return e.op() }
func (e *stubEngine) NewOrder(p workload.Params) error          { return e.op() }
func (e *stubEngine) WriteFeedback(p workload.Params) error     { return e.op() }
func (e *stubEngine) SnapshotRead(p workload.Params) (bool, error) {
	return p.CustomerID%2 == 1, e.op()
}

var testInfo = workload.Info{Customers: 50, Products: 20, Orders: 80}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Info == (workload.Info{}) {
		cfg.Info = testInfo
	}
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestServerRoundTrip exercises every request kind end to end over a
// real TCP connection.
func TestServerRoundTrip(t *testing.T) {
	e := &stubEngine{}
	s := startServer(t, Config{Engine: e})
	cl := dial(t, s)

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	si, err := cl.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if si.Info != testInfo || si.Engine != "stub" {
		t.Errorf("info = %+v/%q, want %+v/stub", si.Info, si.Engine, testInfo)
	}
	if n, err := cl.Query(workload.Q5, testParams); err != nil || n != 50 {
		t.Errorf("query = %d, %v; want 50, nil", n, err)
	}
	for kind := txnOrderUpdate; kind <= txnSnapshotRead; kind++ {
		if _, err := cl.Txn(kind, testParams); err != nil {
			t.Errorf("txn kind %d: %v", kind, err)
		}
	}
	// Torn flag travels in the value: odd customer id → torn.
	p := testParams
	p.CustomerID = 3
	if v, err := cl.Txn(txnSnapshotRead, p); err != nil || v != 1 {
		t.Errorf("snapshot read torn = %d, %v; want 1, nil", v, err)
	}
	n1, err1 := cl.Nonce()
	n2, err2 := cl.Nonce()
	if err1 != nil || err2 != nil || n2 <= n1 || n1 == 0 {
		t.Errorf("nonces = %d/%v, %d/%v; want increasing nonzero", n1, err1, n2, err2)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.Admitted != int64(e.calls.Load()) || snap.Shed() != 0 {
		t.Errorf("stats = %+v, want admitted == %d engine calls, zero shed", snap, e.calls.Load())
	}
}

// TestServerTypedErrors pins the error-class mapping: the typed engine
// sentinels the driver counts aborts with survive the wire.
func TestServerTypedErrors(t *testing.T) {
	e := &stubEngine{failWith: txn.ErrDeadlock}
	s := startServer(t, Config{Engine: e})
	cl := dial(t, s)
	if _, err := cl.Txn(txnOrderUpdateOnce, testParams); !errors.Is(err, txn.ErrDeadlock) {
		t.Errorf("err = %v, want txn.ErrDeadlock through the wire", err)
	}
	e.failWith = federation.ErrCoordinatorCrash
	if _, err := cl.Txn(txnNewOrder, testParams); !errors.Is(err, federation.ErrCoordinatorCrash) {
		t.Errorf("err = %v, want federation.ErrCoordinatorCrash through the wire", err)
	}
	e.failWith = errors.New("some storage failure")
	if _, err := cl.Query(workload.Q1, testParams); !errors.Is(err, ErrRemote) {
		t.Errorf("err = %v, want ErrRemote for a generic engine error", err)
	}
}

// panickingEngine panics inside RunQuery for one query id.
type panickingEngine struct {
	stubEngine
	on workload.QueryID
}

func (e *panickingEngine) RunQuery(q workload.QueryID, p workload.Params) (int, error) {
	if q == e.on {
		panic("stub engine exploded")
	}
	return e.stubEngine.RunQuery(q, p)
}

// TestServerSurvivesPanickingOp pins that a panic inside an engine op
// costs only its own request: the caller gets a remote internal error,
// and the same connection and worker keep serving.
func TestServerSurvivesPanickingOp(t *testing.T) {
	s := startServer(t, Config{Engine: &panickingEngine{on: workload.Q4}, Workers: 1})
	cl := dial(t, s)
	_, err := cl.Query(workload.Q4, testParams)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "internal error: stub engine exploded") {
		t.Errorf("panicking op err = %v, want ErrRemote carrying the internal error", err)
	}
	if err := cl.Ping(); err != nil {
		t.Errorf("ping after the panic: %v", err)
	}
	if n, err := cl.Query(workload.Q5, testParams); err != nil || n != 50 {
		t.Errorf("query after the panic = %d, %v; want 50, nil", n, err)
	}
}

// TestServerRejectsRetiredOp sends intact frames carrying the retired
// op codes 0x03 and 0x04: the server answers each with an error and
// the stream stays in sync for the next request.
func TestServerRejectsRetiredOp(t *testing.T) {
	s := startServer(t, Config{Engine: &stubEngine{}})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func(payload []byte) response {
		t.Helper()
		if _, err := c.Write(wal.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
		frame, _, err := readFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i, payload := range [][]byte{retiredOp03, retiredOp04} {
		op := payload[0]
		if r := roundTrip(payload); r.status != StatusErr {
			t.Errorf("op 0x%02x answered status %d, want StatusErr", op, r.status)
		}
		id := uint64(10 + i)
		if r := roundTrip(encodeRequest(request{op: opPing, id: id})); r.status != StatusOK || r.id != id {
			t.Errorf("ping after op 0x%02x = %+v, want StatusOK for id %d", op, r, id)
		}
	}
}

// TestServerSurvivesEmptyProductID pins two well-formed requests that
// used to take the whole server down: Q6 and T2 slice the product id to
// derive its graph vertex, and an empty id panicked on an admission
// worker. Both must answer — no rows, a remote error — and the same
// server must still serve the next request.
func TestServerSurvivesEmptyProductID(t *testing.T) {
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	if err := ds.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: workload.NewUDBMSEngine(db), Info: workload.InfoOf(ds)})
	cl := dial(t, s)
	if n, err := cl.Query(workload.Q6, workload.Params{}); n != 0 || err != nil {
		t.Errorf("Q6 with no product id = %d, %v; want 0 rows, no error", n, err)
	}
	if _, err := cl.Txn(txnNewOrder, workload.Params{CustomerID: 1, FreshID: "o-no-product"}); !errors.Is(err, ErrRemote) {
		t.Errorf("T2 with no product id: err = %v, want ErrRemote", err)
	}
	if _, ok := db.Docs.Collection("orders").Get(nil, "o-no-product"); ok {
		t.Error("T2 with no product id left its order behind")
	}
	if err := cl.Ping(); err != nil {
		t.Errorf("ping after the two requests: %v", err)
	}
}

// TestServerDeadlineShed pins deadline-aware shedding: with one worker
// busy on a slow op and a microscopic queue deadline, queued requests
// are rejected with a typed overload response instead of being served
// late.
func TestServerDeadlineShed(t *testing.T) {
	e := &stubEngine{opDelay: 30 * time.Millisecond}
	s := startServer(t, Config{Engine: e, Workers: 1, QueueDepth: 16, QueueDeadline: time.Nanosecond})
	cl := dial(t, s)

	// Fill the single worker, then pile queued requests behind it; by
	// the time any of them is dequeued its wait exceeds the 1ns budget.
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cl.Txn(txnWriteFeedback, testParams)
			errs <- err
		}()
	}
	shed := 0
	for i := 0; i < 8; i++ {
		if err := <-errs; errors.Is(err, ErrOverload) {
			shed++
		} else if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Error("no requests shed on deadline despite a 1ns budget behind a 30ms op")
	}
	snap := s.Stats()
	if snap.ShedDeadline == 0 || int(snap.ShedDeadline) != shed {
		t.Errorf("server counted %d deadline sheds, client saw %d", snap.ShedDeadline, shed)
	}
}

// TestServerQueueFullShed pins arrival shedding: a queue of depth 1
// behind a stalled worker rejects excess arrivals immediately.
func TestServerQueueFullShed(t *testing.T) {
	release := make(chan struct{})
	e := &blockingEngine{release: release, entered: make(chan struct{})}
	s := startServer(t, Config{Engine: e, Workers: 1, QueueDepth: 1, QueueDeadline: -1})
	cl := dial(t, s)

	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() {
			_, err := cl.Txn(txnOrderUpdate, testParams)
			errs <- err
		}()
	}
	// Wait until the worker is stalled inside the engine and the queue
	// has had time to fill, then release everyone.
	<-e.entered
	time.Sleep(20 * time.Millisecond)
	close(release)

	served, shed := 0, 0
	for i := 0; i < 6; i++ {
		switch err := <-errs; {
		case err == nil:
			served++
		case errors.Is(err, ErrOverload):
			shed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if served+shed != 6 {
		t.Fatalf("served %d + shed %d != 6 offered", served, shed)
	}
	if shed == 0 {
		t.Error("queue depth 1 behind a stalled worker shed nothing")
	}
	snap := s.Stats()
	if snap.ShedQueueFull != int64(shed) || snap.Admitted != int64(served) {
		t.Errorf("server stats %+v disagree with client (served %d, shed %d)", snap, served, shed)
	}
}

// blockingEngine parks every op until release is closed, signalling
// entered once the first op is inside.
type blockingEngine struct {
	stubEngine
	release   chan struct{}
	entered   chan struct{}
	signalled atomic.Bool
}

func (e *blockingEngine) OrderUpdate(p workload.Params) error {
	if e.signalled.CompareAndSwap(false, true) {
		close(e.entered)
	}
	<-e.release
	return nil
}
