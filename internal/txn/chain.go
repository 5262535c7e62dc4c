package txn

import (
	"sync"
	"sync/atomic"
)

// Chain is a per-record multi-version chain: an immutable newest-first
// linked list of versions in descending commit-timestamp order. At most
// one uncommitted version (owned by the writing transaction, which holds
// the record's exclusive lock) may sit at the head.
//
// Readers take no lock; one writer at a time under the record lock.
// Read, ReadLatest and Empty load the head and follow atomic next
// pointers. write, CommitStamp and Rollback serialise on a mutex only
// among themselves: a write publishes a new head node (replacing the
// caller's own pending head rather than editing it) and cuts the list
// below the newest version at or under the manager's horizon, a commit
// stamps the pending head's atomic timestamp, and a rollback pops it. A
// reader that is past a cut keeps walking the nodes it already reached,
// which stay valid.
//
// The zero Chain is empty and ready to use.
type Chain[T any] struct {
	// Res is the record's interned lock-table key, set once by the
	// owning store when the record is created (before the chain is
	// shared) so the lock path never rebuilds the resource string.
	Res ResourceKey

	mu   sync.Mutex // serialises writers
	head atomic.Pointer[version[T]]
}

// version is one node of a chain. Everything but commitTS and next is
// fixed before the node is published.
type version[T any] struct {
	commitTS atomic.Uint64 // 0 while uncommitted
	owner    uint64        // writing txID; meaningful only while uncommitted
	value    T
	next     atomic.Pointer[version[T]] // next older version
}

// pendingOf reports whether v is txID's uncommitted version.
func (v *version[T]) pendingOf(txID uint64) bool {
	return v != nil && v.commitTS.Load() == 0 && v.owner == txID
}

// Read returns the record value visible to a reader with snapshot
// timestamp snapTS belonging to transaction txID (0 for non-
// transactional readers). Own uncommitted writes are visible. The
// second result is false if no version is visible.
func (c *Chain[T]) Read(snapTS TS, txID uint64) (T, bool) {
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		ts := TS(v.commitTS.Load())
		if ts == 0 {
			if txID != 0 && v.owner == txID {
				return v.value, true
			}
			continue
		}
		if ts <= snapTS {
			return v.value, true
		}
	}
	var zero T
	return zero, false
}

// latestCommitted returns the newest committed version, or nil.
func (c *Chain[T]) latestCommitted() *version[T] {
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		if v.commitTS.Load() != 0 {
			return v
		}
	}
	return nil
}

// ReadLatest returns the newest committed version regardless of
// snapshot: what a nil-tx reader sees.
func (c *Chain[T]) ReadLatest() (T, bool) {
	if v := c.latestCommitted(); v != nil {
		return v.value, true
	}
	var zero T
	return zero, false
}

// write installs an uncommitted version owned by txID and trims the
// versions no snapshot at or above horizon can read. The caller must
// hold the record's exclusive lock. A previous uncommitted version by
// the same transaction is replaced.
func (c *Chain[T]) write(txID uint64, value T, horizon TS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nv := &version[T]{owner: txID, value: value}
	older := c.head.Load()
	if older.pendingOf(txID) {
		older = older.next.Load()
	}
	nv.next.Store(older)
	c.head.Store(nv)
	c.trim(horizon)
}

// trim cuts the versions below the newest committed one at or under
// horizon: a snapshot at or above horizon reads that one or a newer
// one. The caller holds mu.
func (c *Chain[T]) trim(horizon TS) {
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		if ts := TS(v.commitTS.Load()); ts != 0 && ts <= horizon {
			v.next.Store(nil)
			return
		}
	}
}

// CommitStamp stamps txID's uncommitted version with ts. It is a no-op
// if the transaction has no pending version on this chain.
func (c *Chain[T]) CommitStamp(txID uint64, ts TS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.head.Load(); h.pendingOf(txID) {
		h.commitTS.Store(uint64(ts))
	}
}

// Rollback discards txID's uncommitted version, if any.
func (c *Chain[T]) Rollback(txID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.head.Load(); h.pendingOf(txID) {
		c.head.Store(h.next.Load())
	}
}

// Empty reports whether the chain holds no versions at all, as the
// chain of an insert that never committed does.
func (c *Chain[T]) Empty() bool { return c.head.Load() == nil }

// Visible returns the value a reader sees: the snapshot-visible version
// (own uncommitted writes included) for a transaction, the latest
// committed version when tx is nil.
func (c *Chain[T]) Visible(tx *Tx) (T, bool) {
	if tx == nil {
		return c.ReadLatest()
	}
	return c.Read(tx.BeginTS(), tx.ID())
}

// Current returns the value as of now for a transaction holding the
// record's lock: the newest committed version, or tx's own uncommitted
// write. Under the lock no other writer can be stamping this chain, so
// reading at the oracle's current edge is stable.
func (c *Chain[T]) Current(tx *Tx) (T, bool) {
	return c.Read(tx.mgr.oracle.Current(), tx.id)
}

// Stage is the write ritual every store shares: install value as tx's
// uncommitted version, trimming the chain at the manager's horizon,
// roll it back if tx aborts and, if tx commits, run the owner's commit
// hook, which bumps its version counter, just before stamping the
// commit timestamp. The caller must hold the record's exclusive lock.
func (c *Chain[T]) Stage(tx *Tx, value T, committing func(c *Chain[T], txID uint64)) {
	c.write(tx.ID(), value, TS(tx.mgr.horizon.Load()))
	tx.OnUndo(func() { c.Rollback(tx.ID()) })
	tx.OnCommit(func(ts TS) {
		committing(c, tx.ID())
		c.CommitStamp(tx.ID(), ts)
	})
}
