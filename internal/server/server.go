package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"udbench/internal/federation"
	"udbench/internal/txn"
	"udbench/internal/wal"
	"udbench/internal/workload"
)

// Config tunes a Server.
type Config struct {
	// Engine is the system under test the server fronts. Required.
	// Any Backend works: native transaction requests against a backend
	// without the TxnEngine capability answer with the unsupported
	// error class instead of executing.
	Engine workload.Backend
	// Info carries the dataset cardinalities clients need to build
	// their parameter generators (served by the info request).
	Info workload.Info
	// Workers is the executor pool size — the server's concurrency
	// admission ultimately meters the engine to. Default 4.
	Workers int
	// QueueDepth bounds the admission queue. Requests arriving on a
	// full queue are shed immediately. Default 256.
	QueueDepth int
	// QueueDeadline is the queue-wait budget: a request still queued
	// after this long is shed at dequeue instead of served late.
	// Default 100ms; negative disables deadline shedding.
	QueueDeadline time.Duration
}

// Server is a running network front-end. Create with Serve or Listen.
type Server struct {
	cfg Config
	lis net.Listener
	adm *admission

	nonce    atomic.Uint64
	closed   atomic.Bool
	panicked atomic.Bool // the first recovered op panic's stack went to stderr

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup // accept loop + per-conn readers
}

// conn is one client connection: reads are owned by its reader
// goroutine, writes are serialized by mu (workers respond from the
// pool, possibly out of request order).
type conn struct {
	c    net.Conn
	mu   sync.Mutex
	wbuf []byte
}

// respond frames and writes one response. Write errors are dropped:
// the reader side of a dying connection observes the failure and tears
// the connection down; a worker has nowhere to report it.
func (cn *conn) respond(r response) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.wbuf = wal.AppendFrame(cn.wbuf[:0], encodeResponse(r))
	_, _ = cn.c.Write(cn.wbuf)
}

// Listen starts a server on addr (e.g. "127.0.0.1:7744").
func Listen(addr string, cfg Config) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(lis, cfg), nil
}

// Serve starts a server on an existing listener and returns
// immediately; the accept loop and worker pool run in the background
// until Close.
func Serve(lis net.Listener, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDeadline == 0 {
		cfg.QueueDeadline = 100 * time.Millisecond
	}
	if cfg.QueueDeadline < 0 {
		cfg.QueueDeadline = 0
	}
	s := &Server{
		cfg:   cfg,
		lis:   lis,
		adm:   newAdmission(cfg.QueueDepth, cfg.QueueDeadline),
		conns: make(map[*conn]struct{}),
	}
	s.adm.start(cfg.Workers, s.exec, func(t task) {
		t.c.respond(response{id: t.req.id, status: StatusOverload, shedReason: shedDeadline})
	})
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Stats returns the cumulative admission-control telemetry.
func (s *Server) Stats() AdmissionSnapshot { return s.adm.snapshot() }

// Close stops accepting, closes every connection, and waits for the
// reader goroutines and worker pool to exit.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.lis.Close()
	s.mu.Lock()
	for cn := range s.conns {
		_ = cn.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.adm.stop()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return // Close (or a fatal listener error) ends the server
		}
		cn := &conn{c: c}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[cn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(cn)
	}
}

func (s *Server) dropConn(cn *conn) {
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
	_ = cn.c.Close()
}

// readLoop decodes frames off one connection. Control requests (info,
// nonce, stats, ping) are answered inline — they are the measurement
// plane and must not contend with the workload in the admission queue.
// Workload requests are offered to the bounded queue; a full queue
// sheds them right here with an overload response.
func (s *Server) readLoop(cn *conn) {
	defer s.wg.Done()
	defer s.dropConn(cn)
	var scratch []byte
	for {
		var payload []byte
		var err error
		payload, scratch, err = readFrame(cn.c, scratch)
		if err != nil {
			return // clean EOF, peer reset, or a desynchronized stream
		}
		req, err := decodeRequest(payload)
		if err != nil {
			// The frame was intact (CRC passed) so the stream is still
			// in sync: report the bad request and keep serving.
			cn.respond(response{id: req.id, status: StatusErr, errClass: errClassGeneric, errMsg: err.Error()})
			continue
		}
		switch req.op {
		case opPing:
			cn.respond(response{id: req.id, status: StatusOK})
		case opInfo:
			// rows: engine name, capability descriptor — Client.Info
			// requires both.
			cn.respond(response{
				id: req.id, status: StatusOK,
				u64s: []uint64{uint64(s.cfg.Info.Customers), uint64(s.cfg.Info.Products), uint64(s.cfg.Info.Orders)},
				rows: []string{s.cfg.Engine.Name(), s.cfg.Engine.Capabilities().Encode()},
			})
		case opNonce:
			cn.respond(response{id: req.id, status: StatusOK, value: s.nonce.Add(1)})
		case opStats:
			st := s.adm.snapshot()
			cn.respond(response{id: req.id, status: StatusOK, u64s: []uint64{
				uint64(st.Admitted), uint64(st.ShedQueueFull), uint64(st.ShedDeadline),
				uint64(st.QueueDepthMax), uint64(st.QueueWaitP99NS),
			}})
		default:
			if s.adm.offer(task{c: cn, req: req, enq: time.Now()}) == verdictShedFull {
				cn.respond(response{id: req.id, status: StatusOverload, shedReason: shedQueueFull})
			}
		}
	}
}

// exec runs one admitted workload request on the engine and writes the
// response. A panicking engine op answers its request with a generic
// internal error and leaves the worker serving: one bad request must
// not end the server. The first such panic's stack goes to stderr.
func (s *Server) exec(t task) {
	defer func() {
		if v := recover(); v != nil {
			if s.panicked.CompareAndSwap(false, true) {
				fmt.Fprintf(os.Stderr, "server: recovered panic in op 0x%02x: %v\n%s", t.req.op, v, debug.Stack())
			}
			t.c.respond(response{id: t.req.id, status: StatusErr, errClass: errClassGeneric,
				errMsg: fmt.Sprintf("server: internal error: %v", v)})
		}
	}()
	req := t.req
	var value uint64
	var err error
	switch req.op {
	case opQuery:
		var n int
		n, err = s.cfg.Engine.RunQuery(req.query, req.params)
		value = uint64(n)
	case opTxn:
		// The native transaction set is a capability, not part of the
		// core Backend contract: a backend without it answers every txn
		// request with the typed unsupported error.
		te, ok := s.cfg.Engine.(workload.TxnEngine)
		if !ok || !s.cfg.Engine.Capabilities().Transactions {
			err = fmt.Errorf("server: backend %s has no native transactions: %w",
				s.cfg.Engine.Name(), workload.ErrUnsupported)
			break
		}
		switch req.txn {
		case txnOrderUpdate:
			err = te.OrderUpdate(req.params)
		case txnOrderUpdateOnce:
			err = te.OrderUpdateOnce(req.params)
		case txnStockTransferOnce:
			err = te.StockTransferOnce(req.params)
		case txnNewOrder:
			err = te.NewOrder(req.params)
		case txnWriteFeedback:
			err = te.WriteFeedback(req.params)
		case txnSnapshotRead:
			var torn bool
			torn, err = te.SnapshotRead(req.params)
			if torn {
				value = 1
			}
		}
	}
	if err != nil {
		t.c.respond(response{id: req.id, status: StatusErr, errClass: classifyErr(err), errMsg: err.Error()})
		return
	}
	t.c.respond(response{id: req.id, status: StatusOK, value: value})
}

// classifyErr maps engine errors onto wire error classes so the client
// can reconstruct the typed sentinels the driver counts aborts with.
func classifyErr(err error) byte {
	switch {
	case errors.Is(err, txn.ErrDeadlock):
		return errClassDeadlock
	case errors.Is(err, federation.ErrCoordinatorCrash):
		return errClassCoordCrash
	case errors.Is(err, workload.ErrUnsupported):
		return errClassUnsupported
	}
	return errClassGeneric
}

// errFromClass is the client-side inverse of classifyErr.
func errFromClass(class byte, msg string) error {
	switch class {
	case errClassDeadlock:
		return fmt.Errorf("%w (remote: %s)", txn.ErrDeadlock, msg)
	case errClassCoordCrash:
		return fmt.Errorf("%w (remote: %s)", federation.ErrCoordinatorCrash, msg)
	case errClassUnsupported:
		// Carries both sentinels: ErrRemote (the operation failed on the
		// wire's far side) and the typed ErrUnsupported callers use to
		// degrade gracefully.
		return fmt.Errorf("%w: %w (remote: %s)", ErrRemote, workload.ErrUnsupported, msg)
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}
