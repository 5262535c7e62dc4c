// Package txn provides the transactional substrate shared by all UDBench
// stores: a global timestamp oracle, per-record multi-version chains, a
// strict two-phase-locking lock table that refuses a wait closing a
// wait-for cycle, the transaction object that ties them together, and
// — one level up — the record layer the stores are built on: Records, an
// ordered map of version chains that owns locking, the write ritual,
// visibility, advisory indexes and version GC, so a store adds only
// what is specific to its data model. One retry policy (Retry, with
// backoff) serves every auto-committed operation, every bulk load (Bulk,
// BulkBatch records per transaction) and both engines' RunTx.
//
// Concurrency model ("SI+SS2PL"): writers take exclusive locks held to
// commit (strict 2PL), so write sets serialize. Readers never lock; they
// read the newest record version whose commit timestamp is <= the
// transaction's begin timestamp, i.e. snapshot reads. A transaction
// always sees its own uncommitted writes.
package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// TS is a logical timestamp issued by the Oracle.
type TS uint64

// Oracle issues strictly increasing logical timestamps. The zero Oracle
// is ready to use.
type Oracle struct {
	counter atomic.Uint64
}

// Next returns the next timestamp (starting at 1).
func (o *Oracle) Next() TS { return TS(o.counter.Add(1)) }

// Current returns the most recently issued timestamp.
func (o *Oracle) Current() TS { return TS(o.counter.Load()) }

// Errors returned by transaction operations.
var (
	// ErrDeadlock is returned to the victim of a deadlock; the
	// transaction has been aborted and must be retried by the caller.
	ErrDeadlock = errors.New("txn: deadlock detected, transaction aborted")
	// ErrTxClosed is returned when using a committed or aborted Tx.
	ErrTxClosed = errors.New("txn: transaction is closed")
)

// Status describes the lifecycle state of a transaction.
type Status uint8

// Transaction lifecycle states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// commitWindow bounds how far the commit sequence may run ahead of the
// published watermark (i.e. how many commits can be stamping versions
// concurrently). Must be a power of two. 1024 is far beyond any
// realistic in-flight transaction count, so the window guard in Commit
// effectively never spins.
const commitWindow = 1024

// Manager coordinates transactions across any number of stores. All
// stores attached to the same Manager share one lock space and one
// commit point, which is what makes UDBMS cross-model transactions
// atomic. Create with NewManager.
type Manager struct {
	oracle Oracle
	locks  *lockTable
	nextID atomic.Uint64
	active atomic.Int64

	// Epoch-based commit protocol: commits stamp their versions at a
	// timestamp allocated from the oracle, then *publish* it by raising
	// the watermark below — but only once every smaller commit
	// timestamp has also finished stamping, so the prefix [1,published]
	// is always fully stamped. Begin snapshots at the published
	// watermark with a single atomic load: there is no commit mutex,
	// and a reader can never observe a torn (half-stamped) commit.
	//
	// commitSlots is a ring: slot ts%commitWindow holds ts once the
	// commit at ts has stamped all its versions. advancePublished walks
	// the contiguous prefix of finished slots.
	published   atomic.Uint64
	commitSlots [commitWindow]atomic.Uint64

	commits atomic.Uint64
	aborts  atomic.Uint64

	// commitLog, when set, is the durability hook: Commit hands it the
	// transaction's logical op records before publishing and waits on it
	// after. Stored behind an atomic pointer so the hot-path nil check
	// is one load.
	commitLog atomic.Pointer[commitLogBox]
}

// CommitLog is the durability hook a write-ahead log implements.
// Append is called with the commit timestamp and the transaction's
// logical op records after the timestamp is allocated but before it is
// stored in the publish ring — so "ts published" always implies "every
// record <= ts handed to the log", which is what lets the log flush
// one ordered batch per watermark advance. Commit is called after the
// watermark has published ts and must block until ts is durable per
// the log's policy (or return its typed error, e.g. a sealed log).
type CommitLog interface {
	Append(ts uint64, ops [][]byte) error
	Commit(ts uint64) error
}

type commitLogBox struct{ log CommitLog }

// SetCommitLog attaches (or, with nil, detaches) the durability hook.
// It must be called before transactions that should be logged begin;
// recovery attaches it after replay, before serving traffic.
func (m *Manager) SetCommitLog(l CommitLog) {
	if l == nil {
		m.commitLog.Store(nil)
		return
	}
	m.commitLog.Store(&commitLogBox{log: l})
}

// CommitLogAttached reports whether a durability hook is set.
func (m *Manager) CommitLogAttached() bool { return m.commitLog.Load() != nil }

func (m *Manager) commitLogRef() CommitLog {
	if box := m.commitLog.Load(); box != nil {
		return box.log
	}
	return nil
}

// NewManager returns a ready Manager.
func NewManager() *Manager {
	return &Manager{locks: newLockTable()}
}

// Begin starts a transaction with a snapshot at the published commit
// watermark. This is the epoch-commit read side: one atomic load, no
// mutex, regardless of how many commits are in flight.
func (m *Manager) Begin() *Tx {
	tx := &Tx{
		id:      m.nextID.Add(1),
		beginTS: TS(m.published.Load()),
		mgr:     m,
	}
	m.active.Add(1)
	return tx
}

// Oracle exposes the manager's timestamp oracle (used by replication
// and consistency metrics to relate events to commit timestamps).
// Current may run ahead of the published snapshot watermark while
// commits are stamping; callers comparing record stamps to it are
// unaffected because a record's own stamps are always complete while
// its lock is held. Next is reserved for the commit protocol — issuing
// timestamps from a manager-attached oracle outside Commit would stall
// the publish watermark.
func (m *Manager) Oracle() *Oracle { return &m.oracle }

// Published returns the commit watermark: every commit with timestamp
// at or below it is fully stamped and visible to new snapshots. While
// commits are stamping, Oracle().Current() runs ahead of Published();
// the watermark is the tight safe bound for version GC — see
// udbms.Compact.
func (m *Manager) Published() TS { return TS(m.published.Load()) }

// RestoreWatermark fast-forwards the oracle and the published
// watermark to ts. Recovery calls it once after replaying a log whose
// records carry pre-crash timestamps, so post-recovery commits are
// stamped strictly after every replayed record. It must be called
// before any concurrent transaction activity on this manager.
func (m *Manager) RestoreWatermark(ts TS) {
	if m.oracle.counter.Load() < uint64(ts) {
		m.oracle.counter.Store(uint64(ts))
	}
	if m.published.Load() < uint64(ts) {
		m.published.Store(uint64(ts))
	}
}

// Stats reports cumulative commit and abort counts.
func (m *Manager) Stats() (commits, aborts uint64) {
	return m.commits.Load(), m.aborts.Load()
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	return int(m.active.Load())
}

// advancePublished raises the watermark over the contiguous prefix of
// finished commits. Any committer may carry the watermark forward on
// behalf of others; a failed CAS just means someone else advanced it.
func (m *Manager) advancePublished() {
	for {
		p := m.published.Load()
		next := p + 1
		if m.commitSlots[next&(commitWindow-1)].Load() != next {
			return
		}
		m.published.CompareAndSwap(p, next)
	}
}

// Tx is a single transaction. A Tx is not safe for concurrent use by
// multiple goroutines.
type Tx struct {
	id      uint64
	beginTS TS
	mgr     *Manager
	status  Status

	undo       []func()
	commitHook []func(TS)
	// walOps collects the transaction's logical op records for the
	// commit log. Stores append via LogOp only when Logging() is true,
	// so with no log attached the write hot path stays untouched.
	walOps [][]byte
	// heldLocks records every lock this transaction holds — one record
	// per resource. The records carry the entry pointer so release never
	// looks a key up again.
	heldLocks []heldLock
	// heldIndex maps resource name -> heldLocks slot once the
	// transaction holds more than heldIndexThreshold locks, keeping the
	// per-acquire reentrancy lookup O(1) for lock-heavy transactions.
	// Nil below the threshold: a linear scan of a small slice beats a
	// map and keeps the common path allocation-free.
	heldIndex map[string]int
}

// ID returns the transaction's unique identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// BeginTS returns the snapshot timestamp reads are served at.
func (tx *Tx) BeginTS() TS { return tx.beginTS }

// Status returns the lifecycle state.
func (tx *Tx) Status() Status { return tx.status }

// ReadOnly reports whether the transaction has performed no writes so
// far: no locks (every lock is a writer's), no undo actions, no logged
// ops. Read-side caches use it to rule out uncommitted own-writes that
// a shared (committed-state) structure could not reflect. The answer is
// only about the past — the transaction may still write afterwards.
func (tx *Tx) ReadOnly() bool {
	return len(tx.heldLocks) == 0 && len(tx.undo) == 0 && len(tx.walOps) == 0
}

// Shares is the gate for read-side structures built from a store's
// committed state and reused while its version counter, bumped in the
// commit hook before the stamp, stands still (a join projection, a graph
// CSR): one built at snap serves tx if tx has written nothing and no
// commit lies between the snapshots. A nil tx reads the latest state.
func Shares(tx *Tx, snap TS) bool {
	return tx == nil || tx.ReadOnly() && tx.beginTS >= snap
}

// Certifies reports whether a structure tx builds now may serve others:
// no commit is in flight and Shares(tx, Published()). The caller has
// read the store's version counter first, so a commit it reflects has
// published by now and any later one moves it.
func (m *Manager) Certifies(tx *Tx) bool {
	wm := m.Published()
	return m.oracle.Current() == wm && Shares(tx, wm)
}

// LockExclusive acquires an exclusive lock on the named resource,
// blocking until granted. If waiting would close a cycle in the
// wait-for graph the transaction is aborted and ErrDeadlock returned.
// Locks are held until Commit or Abort (strict 2PL). Hot paths should
// prefer LockExclusiveKey with a precomputed ResourceKey.
func (tx *Tx) LockExclusive(resource string) error {
	return tx.lock(NewResourceKey(resource))
}

// LockExclusiveKey is LockExclusive over a precomputed key; with an
// interned key the acquire path performs no allocations.
func (tx *Tx) LockExclusiveKey(key ResourceKey) error {
	return tx.lock(key)
}

// heldIndexThreshold is the held-lock count past which Tx builds the
// name->slot index instead of linearly scanning heldLocks per acquire.
const heldIndexThreshold = 16

// holds reports whether this transaction holds the named resource.
func (tx *Tx) holds(name string) bool {
	if tx.heldIndex != nil {
		_, ok := tx.heldIndex[name]
		return ok
	}
	for i := range tx.heldLocks {
		if tx.heldLocks[i].key.name == name {
			return true
		}
	}
	return false
}

// recordHeld appends a held-lock record, upgrading to the indexed
// lookup once the transaction is lock-heavy.
func (tx *Tx) recordHeld(h heldLock) {
	tx.heldLocks = append(tx.heldLocks, h)
	if tx.heldIndex != nil {
		tx.heldIndex[h.key.name] = len(tx.heldLocks) - 1
	} else if len(tx.heldLocks) > heldIndexThreshold {
		tx.heldIndex = make(map[string]int, 2*len(tx.heldLocks))
		for i := range tx.heldLocks {
			tx.heldIndex[tx.heldLocks[i].key.name] = i
		}
	}
}

func (tx *Tx) lock(key ResourceKey) error {
	if tx.status != StatusActive {
		return ErrTxClosed
	}
	if tx.holds(key.name) {
		return nil // re-entry: locks are held to commit
	}
	e, err := tx.mgr.locks.acquire(tx.id, key)
	if err != nil {
		tx.Abort()
		return err
	}
	tx.recordHeld(heldLock{key: key, entry: e})
	return nil
}

// Logging reports whether this transaction's mutations should be
// recorded for the commit log. Stores check it before building an op
// record, keeping the non-durable configuration allocation-free.
func (tx *Tx) Logging() bool {
	return tx.status == StatusActive && tx.mgr.commitLog.Load() != nil
}

// LogOp appends one logical op record to the transaction's commit-log
// payload. Ops replay in append order; an aborted transaction's ops
// are discarded without ever reaching the log.
func (tx *Tx) LogOp(op []byte) { tx.walOps = append(tx.walOps, op) }

// OnUndo registers fn to run (in reverse order) if the transaction
// aborts. Stores use this to remove uncommitted versions.
func (tx *Tx) OnUndo(fn func()) { tx.undo = append(tx.undo, fn) }

// OnCommit registers fn to run with the commit timestamp when the
// transaction commits. Stores use this to stamp uncommitted versions.
func (tx *Tx) OnCommit(fn func(TS)) { tx.commitHook = append(tx.commitHook, fn) }

// Commit atomically installs all writes at a single new commit
// timestamp and releases all locks.
//
// The commit point is epoch-based: the commit timestamp is allocated
// from the oracle's atomic sequence, every written version chain is
// stamped (safe without a global mutex — the transaction still holds
// the exclusive locks on everything it stamps), and the timestamp is
// then published by raising the snapshot watermark once all smaller
// timestamps have published too. Snapshot readers begin at the
// watermark, so they see either all of a transaction's writes or none
// of them, across every store on this manager — and Commit only
// returns once its timestamp is published, so a subsequent Begin
// anywhere observes the commit (read-your-writes).
// When a commit log is attached, durability brackets the publish: the
// op records are handed to the log *before* the slot store (so the
// watermark ring doubles as the log's ordering barrier) and the commit
// waits for the log *after* publishing. A refusal from Append — e.g. a
// sealed log — aborts the commit before any version is stamped; a
// failure from the post-publish wait means the commit is applied in
// memory but NOT durable, which Commit reports by returning the log's
// typed error (recovery will not replay it).
func (tx *Tx) Commit() (TS, error) {
	if tx.status != StatusActive {
		return 0, ErrTxClosed
	}
	m := tx.mgr
	var clog CommitLog
	if len(tx.walOps) > 0 {
		clog = m.commitLogRef()
	}
	commitTS := uint64(m.oracle.Next())
	// Window guard: never lap the publish ring. Needs commitWindow
	// commits in flight at once to trip.
	for commitTS-m.published.Load() > commitWindow {
		runtime.Gosched()
	}
	var logErr error
	if clog != nil {
		logErr = clog.Append(commitTS, tx.walOps)
	}
	if logErr == nil {
		for _, fn := range tx.commitHook {
			fn(TS(commitTS))
		}
	}
	// The slot must be stored even when the log refused the commit:
	// the published watermark only advances over a contiguous prefix,
	// so an abandoned timestamp would stall every later commit.
	m.commitSlots[commitTS&(commitWindow-1)].Store(commitTS)
	m.advancePublished()
	// Wait until our commit is visible; predecessors are actively
	// stamping, so this resolves in the time their hooks take. The
	// advance call inside the loop lets us carry the watermark if a
	// predecessor marked its slot but lost the CAS race.
	for m.published.Load() < commitTS {
		runtime.Gosched()
		m.advancePublished()
	}
	if logErr != nil {
		// Nothing was stamped: roll back like Abort and surface the
		// log's refusal (typically wal.ErrSealed).
		for i := len(tx.undo) - 1; i >= 0; i-- {
			tx.undo[i]()
		}
		tx.status = StatusAborted
		tx.finish()
		m.aborts.Add(1)
		return 0, logErr
	}
	if clog != nil {
		logErr = clog.Commit(commitTS)
	}
	tx.status = StatusCommitted
	tx.finish()
	m.commits.Add(1)
	if logErr != nil {
		return 0, logErr
	}
	return TS(commitTS), nil
}

// Abort rolls back all writes and releases all locks. Abort on a closed
// transaction is a no-op.
func (tx *Tx) Abort() {
	if tx.status != StatusActive {
		return
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	tx.status = StatusAborted
	tx.finish()
	tx.mgr.aborts.Add(1)
}

func (tx *Tx) finish() {
	tx.mgr.locks.release(tx.heldLocks)
	tx.heldLocks = nil
	tx.heldIndex = nil
	tx.undo = nil
	tx.commitHook = nil
	tx.walOps = nil
	tx.mgr.active.Add(-1)
}

// DefaultRetries is the deadlock-retry budget of every auto-committed
// operation and of the engines' RunTx.
const DefaultRetries = 3

// Backoff between deadlock retries: the victim sleeps a uniformly random
// time inside a window that starts at 2*backoffBase and doubles with
// every retry up to backoffCap.
const (
	backoffBase = 25 * time.Microsecond
	backoffCap  = 2 * time.Millisecond
)

// Retry is the one deadlock-retry policy: it calls attempt until it
// returns nil or an error other than ErrDeadlock, at most retries+1
// times, backing off between calls. attempt must leave nothing behind
// when it fails (abort what it began).
//
// The backoff is what makes the budget mean something: the victim is
// the transaction whose wait would close a cycle, and its abort wakes
// the survivor that waited on it. An immediate retry can take its first
// lock back before that survivor runs, rebuild the same cycle and kill
// one side again, until the budget is gone. The jittered, exponentially
// growing sleep lets the survivors of the cycle commit and
// desynchronises victims that would otherwise collide again.
//
// Termination: the loop makes at most retries+1 attempts and sleeps at
// most retries*backoffCap in total, so it returns within that plus the
// attempts' own run time, whatever the lock table does.
func Retry(retries int, attempt func() error) error {
	window := backoffBase
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || !errors.Is(err, ErrDeadlock) || n >= retries {
			return err
		}
		window = min(2*window, backoffCap)
		time.Sleep(time.Duration(rand.Int63n(int64(window))))
	}
}

// RunWith executes fn inside a fresh transaction, committing on nil and
// aborting on error. A deadlock victim is retried up to retries times
// under the Retry policy.
func (m *Manager) RunWith(retries int, fn func(tx *Tx) error) error {
	return Retry(retries, func() error {
		tx := m.Begin()
		err := fn(tx)
		if err == nil {
			_, err = tx.Commit()
		}
		if err != nil {
			tx.Abort()
		}
		return err
	})
}

// Auto is the auto-commit wrapper behind every store operation that
// accepts an optional transaction: fn runs under tx, or — when tx is
// nil — in a fresh transaction of its own with the default retry
// budget.
func (m *Manager) Auto(tx *Tx, fn func(*Tx) error) error {
	if tx != nil {
		return fn(tx)
	}
	return m.RunWith(DefaultRetries, fn)
}

// BulkBatch is how many records Bulk puts in one transaction: large
// enough that a logged load pays one commit record and one durability
// barrier per BulkBatch records, small enough that a batch's held locks
// and undo list stay a few hundred entries.
const BulkBatch = 512

// Bulk is the one bulk-load path: it calls put for every i in [0, n),
// BulkBatch calls per transaction, and commits each transaction under
// RunWith's deadlock-retry policy before the next begins. A failing put
// aborts its batch and ends the load; earlier batches stay committed,
// so a crash or an error leaves a prefix of whole batches.
func (m *Manager) Bulk(n int, put func(tx *Tx, i int) error) error {
	for lo := 0; lo < n; lo += BulkBatch {
		hi := min(lo+BulkBatch, n)
		if err := m.RunWith(DefaultRetries, func(tx *Tx) error {
			for i := lo; i < hi; i++ {
				if err := put(tx, i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// LogDDL makes a schema change durable: with a commit log attached it
// commits the op record alone in an auto-commit transaction, so
// recovery replays the DDL before the records that depend on it.
// Without a log it does nothing (op is not called).
func (m *Manager) LogDDL(op func() []byte) error {
	if !m.CommitLogAttached() {
		return nil
	}
	return m.Auto(nil, func(tx *Tx) error {
		if tx.Logging() {
			tx.LogOp(op())
		}
		return nil
	})
}
