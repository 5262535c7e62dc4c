package txn

import "time"

// DetectorStats counts the deadlock detector's work: the transactions
// that failed with ErrDeadlock because their wait would have closed a
// cycle (one per cycle).
type DetectorStats struct {
	Victims uint64 `json:"victims"`
}

// LockStats is a point-in-time snapshot of lock-table telemetry:
// cumulative totals since the manager was created and the deadlock
// detector's counter. Counters are monotone, so the telemetry of a
// bounded run is the Delta of two snapshots.
type LockStats struct {
	Acquires uint64        `json:"acquires"`
	Waits    uint64        `json:"waits"`
	WaitNS   time.Duration `json:"wait_ns"`
	Detector DetectorStats `json:"detector"`
}

// WaitRate returns the fraction of acquires that blocked.
func (s LockStats) WaitRate() float64 {
	if s.Acquires == 0 {
		return 0
	}
	return float64(s.Waits) / float64(s.Acquires)
}

// Delta returns the change from prev to s. Both snapshots must come
// from the same manager (counters are monotone).
func (s LockStats) Delta(prev LockStats) LockStats {
	return LockStats{
		Acquires: s.Acquires - prev.Acquires,
		Waits:    s.Waits - prev.Waits,
		WaitNS:   s.WaitNS - prev.WaitNS,
		Detector: DetectorStats{Victims: s.Detector.Victims - prev.Detector.Victims},
	}
}

// Merge returns the sum of s and other, the snapshots of two different
// lock tables (the federation folds its five per-store managers this
// way); within one manager use Delta, not Merge.
func (s LockStats) Merge(other LockStats) LockStats {
	return LockStats{
		Acquires: s.Acquires + other.Acquires,
		Waits:    s.Waits + other.Waits,
		WaitNS:   s.WaitNS + other.WaitNS,
		Detector: DetectorStats{Victims: s.Detector.Victims + other.Detector.Victims},
	}
}

// LockStats snapshots the manager's lock-table telemetry. Shard
// counters are atomics, so the snapshot takes no shard mutex (only the
// small detector mutex once); it is cheap but not a single atomic cut
// across shards — fine for the monotone counters it reads.
func (m *Manager) LockStats() LockStats {
	return m.locks.stats()
}

func (lt *lockTable) stats() LockStats {
	var out LockStats
	for i := range lt.shards {
		s := &lt.shards[i]
		out.Acquires += s.acquires.Load()
		out.Waits += s.waits.Load()
		out.WaitNS += time.Duration(s.waitNS.Load())
	}
	d := &lt.det
	d.mu.Lock()
	out.Detector.Victims = d.victims
	d.mu.Unlock()
	return out
}
