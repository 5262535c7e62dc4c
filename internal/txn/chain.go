package txn

import (
	"sync"
)

// Chain is a per-record multi-version chain. Versions are kept in
// ascending commit-timestamp order; at most one uncommitted version
// (owned by the writing transaction, which holds the record's exclusive
// lock) may sit at the tail.
//
// The zero Chain is empty and ready to use. Chain is safe for
// concurrent readers and one writer (the lock holder).
type Chain[T any] struct {
	// Res is the record's interned lock-table key, set once by the
	// owning store when the record is created (before the chain is
	// shared) so the lock path never rebuilds the resource string.
	Res ResourceKey

	mu       sync.RWMutex
	versions []version[T]
}

type version[T any] struct {
	commitTS TS     // 0 while uncommitted
	owner    uint64 // writing txID while uncommitted, else 0
	deleted  bool
	value    T
}

// Read returns the record value visible to a reader with snapshot
// timestamp snapTS belonging to transaction txID (0 for non-
// transactional readers). Own uncommitted writes are visible. The
// second result is false if no visible, non-deleted version exists.
func (c *Chain[T]) Read(snapTS TS, txID uint64) (T, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.versions) - 1; i >= 0; i-- {
		v := &c.versions[i]
		if v.commitTS == 0 {
			if txID != 0 && v.owner == txID {
				return v.value, !v.deleted
			}
			continue
		}
		if v.commitTS <= snapTS {
			return v.value, !v.deleted
		}
	}
	var zero T
	return zero, false
}

// ReadLatest returns the newest committed version regardless of
// snapshot (used by replication shipping and non-transactional paths).
func (c *Chain[T]) ReadLatest() (T, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.versions) - 1; i >= 0; i-- {
		v := &c.versions[i]
		if v.commitTS != 0 {
			return v.value, !v.deleted
		}
	}
	var zero T
	return zero, false
}

// LatestCommitTS returns the commit timestamp of the newest committed
// version, or 0 if none.
func (c *Chain[T]) LatestCommitTS() TS {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].commitTS != 0 {
			return c.versions[i].commitTS
		}
	}
	return 0
}

// Write installs an uncommitted version owned by txID. The caller must
// hold the record's exclusive lock. A previous uncommitted version by
// the same transaction is replaced in place.
func (c *Chain[T]) Write(txID uint64, value T, deleted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.versions); n > 0 && c.versions[n-1].commitTS == 0 && c.versions[n-1].owner == txID {
		c.versions[n-1].value = value
		c.versions[n-1].deleted = deleted
		return
	}
	c.versions = append(c.versions, version[T]{owner: txID, value: value, deleted: deleted})
}

// CommitStamp stamps txID's uncommitted version with ts. It is a no-op
// if the transaction has no pending version on this chain.
func (c *Chain[T]) CommitStamp(txID uint64, ts TS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.versions); n > 0 && c.versions[n-1].commitTS == 0 && c.versions[n-1].owner == txID {
		c.versions[n-1].commitTS = ts
		c.versions[n-1].owner = 0
	}
}

// Rollback discards txID's uncommitted version, if any.
func (c *Chain[T]) Rollback(txID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.versions); n > 0 && c.versions[n-1].commitTS == 0 && c.versions[n-1].owner == txID {
		c.versions = c.versions[:n-1]
	}
}

// Empty reports whether the chain holds no versions at all (safe to
// garbage-collect the record).
func (c *Chain[T]) Empty() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.versions) == 0
}

// Len returns the number of stored versions (committed + pending).
func (c *Chain[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.versions)
}

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

// Stage is the write ritual every store shares: install value (or a
// tombstone) as tx's uncommitted version, roll it back if tx aborts and
// stamp it with the commit timestamp if tx commits. The caller must
// hold the record's exclusive lock.
func (c *Chain[T]) Stage(tx *Tx, value T, deleted bool) {
	c.stage(tx, value, deleted, nil)
}

// stage is Stage for a chain owned by r (nil for a bare chain): r's
// commit hook runs just before the stamp.
func (c *Chain[T]) stage(tx *Tx, value T, deleted bool, r *Records[T]) {
	c.Write(tx.ID(), value, deleted)
	tx.OnUndo(func() { c.Rollback(tx.ID()) })
	tx.OnCommit(func(ts TS) {
		if r != nil {
			r.committing(c, tx.ID())
		}
		c.CommitStamp(tx.ID(), ts)
	})
}

// Collect is the per-record compaction step: it garbage-collects
// versions shadowed below horizon and reports how many were dropped and
// whether the record is dead — its latest committed version is a
// tombstone older than horizon — so the owner can unlink it.
func (c *Chain[T]) Collect(horizon TS) (dropped int, dead bool) {
	dropped = c.GC(horizon)
	if _, live := c.ReadLatest(); !live {
		ts := c.LatestCommitTS()
		dead = ts != 0 && ts < horizon
	}
	return dropped, dead
}

// GC drops committed versions that are older than horizon and shadowed
// by a newer committed version, returning how many were dropped.
// The newest committed version is always retained.
func (c *Chain[T]) GC(horizon TS) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keepFrom := 0
	for i := 0; i < len(c.versions)-1; i++ {
		v := &c.versions[i]
		next := &c.versions[i+1]
		if v.commitTS != 0 && v.commitTS < horizon && next.commitTS != 0 && next.commitTS <= horizon {
			keepFrom = i + 1
		}
	}
	if keepFrom == 0 {
		return 0
	}
	dropped := keepFrom
	c.versions = append([]version[T]{}, c.versions[keepFrom:]...)
	return dropped
}
