package server

import (
	"fmt"
	"sync/atomic"

	"udbench/internal/workload"
)

// RemoteEngine adapts a pool of protocol connections back into a
// workload.Engine, so the standard driver, mix, and f5 sweep run
// unchanged against a server across the network. Each operation is
// routed round-robin over the pool; every connection pipelines, so the
// pool size caps sockets, not concurrency.
//
// RemoteEngine also implements:
//
//   - workload.AdmissionProvider — the server's admission telemetry is
//     fetched over the wire and merged into the run report, so a remote
//     mix's JSON carries the admission{...} block;
//   - workload.NonceProvider — run nonces come from the server's own
//     sequence, so independent client processes driving one long-lived
//     server never collide on T2 fresh order ids.
type RemoteEngine struct {
	pool []*Client
	next atomic.Uint64
	name string
	info workload.Info
	caps workload.Capabilities
}

// DialEngine connects a RemoteEngine with conns pooled connections and
// fetches the server's dataset info and engine name.
func DialEngine(addr string, conns int) (*RemoteEngine, error) {
	if conns <= 0 {
		conns = 4
	}
	e := &RemoteEngine{pool: make([]*Client, 0, conns)}
	for i := 0; i < conns; i++ {
		cl, err := Dial(addr)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("server: dial %s: %w", addr, err)
		}
		e.pool = append(e.pool, cl)
	}
	si, err := e.pool[0].Info()
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("server: info from %s: %w", addr, err)
	}
	e.info = si.Info
	e.name = si.Engine + "-remote"
	e.caps = si.Caps
	return e, nil
}

// Capabilities implements workload.Backend with the descriptor the
// server advertised at dial, plus this engine's own wire-backed
// admission and nonce providers.
func (e *RemoteEngine) Capabilities() workload.Capabilities {
	c := e.caps
	c.Admission = e
	c.Nonce = e
	return c
}

// Close tears down every pooled connection.
func (e *RemoteEngine) Close() {
	for _, cl := range e.pool {
		_ = cl.Close()
	}
}

// Info returns the server's dataset cardinalities (fetched at dial).
func (e *RemoteEngine) Info() workload.Info { return e.info }

// ServerName returns the server-side engine name without the "-remote"
// suffix RemoteEngine adds to its own Name.
func (e *RemoteEngine) ServerName() string { return e.name[:len(e.name)-len("-remote")] }

func (e *RemoteEngine) conn() *Client {
	return e.pool[e.next.Add(1)%uint64(len(e.pool))]
}

func (e *RemoteEngine) Name() string { return e.name }

func (e *RemoteEngine) RunQuery(q workload.QueryID, p workload.Params) (int, error) {
	return e.conn().Query(q, p)
}

// txn runs one of the error-only transaction kinds over the wire.
func (e *RemoteEngine) txn(kind byte, p workload.Params) error {
	_, err := e.conn().Txn(kind, p)
	return err
}

func (e *RemoteEngine) OrderUpdate(p workload.Params) error { return e.txn(txnOrderUpdate, p) }

func (e *RemoteEngine) OrderUpdateOnce(p workload.Params) error {
	return e.txn(txnOrderUpdateOnce, p)
}

func (e *RemoteEngine) StockTransferOnce(p workload.Params) error {
	return e.txn(txnStockTransferOnce, p)
}

func (e *RemoteEngine) NewOrder(p workload.Params) error { return e.txn(txnNewOrder, p) }

func (e *RemoteEngine) WriteFeedback(p workload.Params) error { return e.txn(txnWriteFeedback, p) }

func (e *RemoteEngine) SnapshotRead(p workload.Params) (bool, error) {
	v, err := e.conn().Txn(txnSnapshotRead, p)
	return v != 0, err
}

// AdmissionStats implements workload.AdmissionProvider by fetching the
// server's cumulative telemetry; the driver snapshots it before and
// after a run and reports the delta. A transport error yields nil —
// the run report simply omits the admission block.
func (e *RemoteEngine) AdmissionStats() *workload.AdmissionStats {
	snap, err := e.conn().Stats()
	if err != nil {
		return nil
	}
	st := snap.Workload()
	return &st
}

// RunNonce implements workload.NonceProvider with a server-issued
// nonce; 0 on transport error makes the driver fall back to its
// process-local sequence.
func (e *RemoteEngine) RunNonce() uint64 {
	n, err := e.conn().Nonce()
	if err != nil {
		return 0
	}
	return n
}
