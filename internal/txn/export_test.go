package txn

// LatestCommitTS returns the commit timestamp of the newest committed
// version, or 0 if none.
func (c *Chain[T]) LatestCommitTS() TS {
	if v := c.latestCommitted(); v != nil {
		return TS(v.commitTS.Load())
	}
	return 0
}

// Write installs an uncommitted version owned by txID and trims
// nothing: a chain driven without a manager has no horizon.
func (c *Chain[T]) Write(txID uint64, value T) { c.write(txID, value, 0) }

// Len returns the number of stored versions (committed + pending).
func (c *Chain[T]) Len() int {
	n := 0
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// Status returns the lifecycle state.
func (tx *Tx) Status() Status { return tx.status }

// Horizon returns the oldest snapshot an open Tx may read.
func (m *Manager) Horizon() TS { return TS(m.horizon.Load()) }

// LockEntries reports the number of lock-table entries across all
// shards.
func (m *Manager) LockEntries() int {
	n := 0
	for i := range m.locks.shards {
		s := &m.locks.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// ReaderAt returns a closed Tx that still reads at snapshot ts. It is
// not registered, so it holds back no trim: a read through it shows
// which versions at ts the writes since have left.
func (m *Manager) ReaderAt(ts TS) *Tx {
	return &Tx{id: m.nextID.Add(1), beginTS: ts, mgr: m, status: StatusAborted}
}
