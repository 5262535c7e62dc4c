package workload

import (
	"udbench/internal/datagen"
	"udbench/internal/federation"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/wal"
)

// discipline is the one decision that separates the systems under test:
// how an op body gets the session it runs in. Everything else about an
// op is written once, in nativeEngine.
type discipline interface {
	// read runs fn against the system's read view and releases it.
	read(fn func(session) error) error
	// write runs fn in a read-write transaction, committing on nil and
	// rolling back on error, within a deadlock-retry budget (txn.Retry).
	write(retries int, fn func(session) error) error
}

// The two retry budgets a write runs under.
const (
	once    = 0                  // single attempt: the first abort surfaces
	retried = txn.DefaultRetries // deadlock victims are re-run
)

// nativeEngine runs the op bodies (ops.go, pipeline_queries.go) over a five-store bundle under a discipline: the single
// implementation of Backend's op methods and of TxnEngine for both
// in-process engines.
// Each op costs one closure and one interface call on top of its body.
type nativeEngine struct {
	st  datagen.Target
	sut discipline
}

// RunQuery implements Backend with the query table's body.
func (e *nativeEngine) RunQuery(q QueryID, p Params) (n int, err error) {
	def, err := q.def()
	if err != nil {
		return 0, err
	}
	err = e.sut.read(func(s session) error {
		n, err = def.body(e.st, s, p)
		return err
	})
	return n, err
}

// OrderUpdate implements TxnEngine (T1).
func (e *nativeEngine) OrderUpdate(p Params) error {
	return e.sut.write(retried, func(s session) error { return orderUpdateBody(e.st, s, p) })
}

// OrderUpdateOnce implements TxnEngine: one T1 attempt, aborts surface.
func (e *nativeEngine) OrderUpdateOnce(p Params) error {
	return e.sut.write(once, func(s session) error { return orderUpdateBody(e.st, s, p) })
}

// StockTransferOnce implements TxnEngine: one T5 attempt, aborts surface.
func (e *nativeEngine) StockTransferOnce(p Params) error {
	return e.sut.write(once, func(s session) error { return stockTransferBody(e.st, s, p) })
}

// NewOrder implements TxnEngine (T2).
func (e *nativeEngine) NewOrder(p Params) error {
	return e.sut.write(retried, func(s session) error { return newOrderBody(e.st, s, p) })
}

// WriteFeedback implements TxnEngine (T3).
func (e *nativeEngine) WriteFeedback(p Params) error {
	return e.sut.write(retried, func(s session) error { return writeFeedbackBody(e.st, s, p) })
}

// SnapshotRead implements TxnEngine (T4). Whether the view can be torn
// is the read discipline's property: never under one snapshot, possibly
// under per-store latest reads — what the consistency experiment counts.
func (e *nativeEngine) SnapshotRead(p Params) (torn bool, err error) {
	err = e.sut.read(func(s session) error {
		torn, err = snapshotReadBody(e.st, s, p)
		return err
	})
	return torn, err
}

// UDBMSEngine adapts the unified multi-model engine to the workload
// Engine interface. Its discipline: reads see one snapshot spanning all
// five models; writes are one ACID transaction.
type UDBMSEngine struct {
	DB *udbms.DB
	// Durable, when set, exposes the write-ahead-log telemetry of the
	// durable wrapper the DB runs inside (see internal/durable); the
	// driver then reports a durability delta per run.
	Durable DurabilityProvider

	nativeEngine
}

// NewUDBMSEngine wraps db.
func NewUDBMSEngine(db *udbms.DB) *UDBMSEngine {
	e := &UDBMSEngine{DB: db}
	e.st, e.sut = db.Stores(), e
	return e
}

// Name implements Engine.
func (e *UDBMSEngine) Name() string { return "udbms" }

// Capabilities implements Backend: the unified engine is natively
// complete (all models, full transaction set, every query) and
// exposes lock and durability telemetry.
func (e *UDBMSEngine) Capabilities() Capabilities {
	c := FullCapabilities()
	c.LockStats = e
	c.Durability = e
	return c
}

// LockStats implements LockStatsProvider: the unified engine has one
// shared lock table, so its snapshot is the manager's directly.
func (e *UDBMSEngine) LockStats() txn.LockStats { return e.DB.Manager().LockStats() }

// DurabilityStats implements DurabilityProvider; nil when the engine
// runs without a write-ahead log.
func (e *UDBMSEngine) DurabilityStats() *wal.Stats {
	if e.Durable == nil {
		return nil
	}
	return e.Durable.DurabilityStats()
}

// unifiedSession serves every model from the same transaction; store
// requests are in-process calls, so Hop() is free, and pipelines are the
// DB's own (one snapshot, join builds cached).
type unifiedSession struct {
	udbms.Snapshot
	db *udbms.DB
}

func (s unifiedSession) pipeline() *udbms.Pipeline { return s.db.Pipeline(s.Tx) }

func (e *UDBMSEngine) read(fn func(session) error) error {
	tx := e.DB.Begin()
	defer tx.Abort() // read-only: abort releases the snapshot
	return fn(unifiedSession{udbms.Snapshot{Tx: tx}, e.DB})
}

func (e *UDBMSEngine) write(retries int, fn func(session) error) error {
	return e.DB.Manager().RunWith(retries, func(tx *txn.Tx) error {
		return fn(unifiedSession{udbms.Snapshot{Tx: tx}, e.DB})
	})
}

// FederationEngine adapts the polyglot federation. Its discipline:
// reads hit each store's latest state independently (no cross-store
// snapshot exists) and every store request pays the federation's hop
// latency; writes run 2PC over per-store transactions.
type FederationEngine struct {
	F *federation.Federation

	nativeEngine
}

// NewFederationEngine wraps f.
func NewFederationEngine(f *federation.Federation) *FederationEngine {
	e := &FederationEngine{F: f}
	e.st, e.sut = f.Stores(), e
	return e
}

// Name implements Engine.
func (e *FederationEngine) Name() string { return "federation" }

// Capabilities implements Backend: the federation is natively complete
// and exposes aggregated lock telemetry (it runs without a shared
// write-ahead log, so no durability provider).
func (e *FederationEngine) Capabilities() Capabilities {
	c := FullCapabilities()
	c.LockStats = e
	return c
}

// LockStats implements LockStatsProvider: the federation aggregates
// its five independent per-store lock tables.
func (e *FederationEngine) LockStats() txn.LockStats { return e.F.LockStats() }

// fedReadSession reads each store's latest committed state (nil tx)
// and charges one hop per request, the executor's included.
type fedReadSession struct{ f *federation.Federation }

func (s fedReadSession) RelTx() *txn.Tx   { return nil }
func (s fedReadSession) DocTx() *txn.Tx   { return nil }
func (s fedReadSession) GraphTx() *txn.Tx { return nil }
func (s fedReadSession) KVTx() *txn.Tx    { return nil }
func (s fedReadSession) XMLTx() *txn.Tx   { return nil }
func (s fedReadSession) Hop()             { s.f.Hop() }

func (s fedReadSession) pipeline() *udbms.Pipeline { return udbms.PipelineOver(s.f.Stores(), s) }

// fedWriteSession maps each model to its local transaction inside a
// federated 2PC transaction.
type fedWriteSession struct {
	f   *federation.Federation
	ftx *federation.FTx
}

func (s fedWriteSession) RelTx() *txn.Tx   { return s.ftx.Relational() }
func (s fedWriteSession) DocTx() *txn.Tx   { return s.ftx.Docs() }
func (s fedWriteSession) GraphTx() *txn.Tx { return s.ftx.Graph() }
func (s fedWriteSession) KVTx() *txn.Tx    { return s.ftx.KV() }
func (s fedWriteSession) XMLTx() *txn.Tx   { return s.ftx.XML() }
func (s fedWriteSession) Hop()             { s.f.Hop() }

func (s fedWriteSession) pipeline() *udbms.Pipeline { return udbms.PipelineOver(s.f.Stores(), s) }

func (e *FederationEngine) read(fn func(session) error) error { return fn(fedReadSession{e.F}) }

// write runs fn over one local transaction per store. Each store's lock
// table catches the cycles inside it, but none sees a cycle that spans
// two stores, and such a cycle would hang with no timeout. None forms
// because every write body (T1, T2, T3, T5 in ops.go) reaches the
// stores in the order doc → kv → xml → graph and never goes back
// (TestWriteBodiesLockStoresInOrder): a transaction waiting in store r
// holds locks only in stores ranked ≤ r, so along a wait-for cycle the
// ranks never fall, and the cycle lies in one store. A new write body
// must keep that order.
func (e *FederationEngine) write(retries int, fn func(session) error) error {
	return e.F.RunTx(retries, func(ftx *federation.FTx) error { return fn(fedWriteSession{e.F, ftx}) })
}
