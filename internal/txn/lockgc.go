package txn

// Lock-entry garbage collection. A lock entry outlives its release, so
// every resource name ever locked stays in its shard's map — including
// names that have no record, since LockExisting locks the name of a
// missing key to serialize the absence with a concurrent creator. A
// workload that keeps updating keys that do not exist would grow the
// table unboundedly. SweepLockEntries removes every entry with
// no holder and no waiter, under the shard mutex that guards both, so a
// concurrent acquire either finds the entry before the sweep (and keeps
// it busy) or re-creates it after.

// SweepLockEntries removes idle lock-table entries (no holder, no
// waiter) and returns how many were removed. It is safe to run
// concurrently with transactions: busy entries are skipped. Callers
// should invoke it at a GC point — udbms Compact runs it alongside
// version-chain GC at the published commit watermark.
func (m *Manager) SweepLockEntries() int { return m.locks.sweepEntries() }

// LockEntryCount reports the number of lock-table entries across all
// shards (a telemetry walk, not a constant-time counter).
func (m *Manager) LockEntryCount() int { return m.locks.entryCount() }

func (lt *lockTable) sweepEntries() int {
	removed := 0
	for i := range lt.shards {
		s := &lt.shards[i]
		s.mu.Lock()
		for name, e := range s.entries {
			if e.holder == 0 && e.waiters == 0 {
				delete(s.entries, name)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

func (lt *lockTable) entryCount() int {
	n := 0
	for i := range lt.shards {
		s := &lt.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
