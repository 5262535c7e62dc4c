package txn

import "time"

// ShardLockStats is the telemetry of one lock-table shard. Shards with
// no activity are omitted from snapshots, so Shard identifies which of
// the numLockShards stripes the counters belong to.
type ShardLockStats struct {
	Shard    int           `json:"shard"`
	Acquires uint64        `json:"acquires"`
	Waits    uint64        `json:"waits"`
	WaitNS   time.Duration `json:"wait_ns"`
}

// DetectorStats summarizes the background deadlock detector's work: how
// many sweeps ran (one full pass over the wait-for graph per pass, not
// one search per blocked acquire), how many cycles those sweeps found,
// and how many transactions were marked as victims (one per cycle).
// IntervalNS is the sweep cadence — the upper bound on how long a
// deadlocked transaction waits before a victim is chosen.
type DetectorStats struct {
	Sweeps     uint64        `json:"sweeps"`
	Cycles     uint64        `json:"cycles"`
	Victims    uint64        `json:"victims"`
	IntervalNS time.Duration `json:"interval_ns"`
}

// LockStats is a point-in-time snapshot of lock-table telemetry:
// cumulative totals since the manager was created, the deadlock
// detector's counters, and the per-shard breakdown (active shards
// only, ordered by shard index). Counters are monotone, so the
// telemetry of a bounded run is the Delta of two snapshots.
type LockStats struct {
	Acquires uint64           `json:"acquires"`
	Waits    uint64           `json:"waits"`
	WaitNS   time.Duration    `json:"wait_ns"`
	Detector DetectorStats    `json:"detector"`
	Shards   []ShardLockStats `json:"shards"`
}

// WaitRate returns the fraction of acquires that blocked.
func (s LockStats) WaitRate() float64 {
	if s.Acquires == 0 {
		return 0
	}
	return float64(s.Waits) / float64(s.Acquires)
}

// Delta returns the change from prev to s, shard by shard. Both
// snapshots must come from the same manager (counters are monotone);
// shards absent from prev are taken as zero. The detector interval is
// not a counter — the delta carries the current (s) value.
func (s LockStats) Delta(prev LockStats) LockStats {
	prevShards := make(map[int]ShardLockStats, len(prev.Shards))
	for _, ps := range prev.Shards {
		prevShards[ps.Shard] = ps
	}
	out := LockStats{
		Acquires: s.Acquires - prev.Acquires,
		Waits:    s.Waits - prev.Waits,
		WaitNS:   s.WaitNS - prev.WaitNS,
		Detector: DetectorStats{
			Sweeps:     s.Detector.Sweeps - prev.Detector.Sweeps,
			Cycles:     s.Detector.Cycles - prev.Detector.Cycles,
			Victims:    s.Detector.Victims - prev.Detector.Victims,
			IntervalNS: s.Detector.IntervalNS,
		},
	}
	for _, sh := range s.Shards {
		p := prevShards[sh.Shard]
		d := ShardLockStats{
			Shard:    sh.Shard,
			Acquires: sh.Acquires - p.Acquires,
			Waits:    sh.Waits - p.Waits,
			WaitNS:   sh.WaitNS - p.WaitNS,
		}
		if d.Acquires != 0 || d.Waits != 0 || d.WaitNS != 0 {
			out.Shards = append(out.Shards, d)
		}
	}
	return out
}

// Merge folds other into s and returns the sum. Shards are summed by
// index, which aggregates the stripes of *different* lock tables (the
// federation merges its five per-store managers this way); within one
// manager use Delta, not Merge. The merged detector interval is the
// slowest (largest) of the two — the bound on victim latency across
// the merged tables.
func (s LockStats) Merge(other LockStats) LockStats {
	byShard := make(map[int]ShardLockStats, len(s.Shards)+len(other.Shards))
	maxShard := -1
	for _, list := range [][]ShardLockStats{s.Shards, other.Shards} {
		for _, sh := range list {
			acc := byShard[sh.Shard]
			acc.Shard = sh.Shard
			acc.Acquires += sh.Acquires
			acc.Waits += sh.Waits
			acc.WaitNS += sh.WaitNS
			byShard[sh.Shard] = acc
			if sh.Shard > maxShard {
				maxShard = sh.Shard
			}
		}
	}
	interval := s.Detector.IntervalNS
	if other.Detector.IntervalNS > interval {
		interval = other.Detector.IntervalNS
	}
	out := LockStats{
		Acquires: s.Acquires + other.Acquires,
		Waits:    s.Waits + other.Waits,
		WaitNS:   s.WaitNS + other.WaitNS,
		Detector: DetectorStats{
			Sweeps:     s.Detector.Sweeps + other.Detector.Sweeps,
			Cycles:     s.Detector.Cycles + other.Detector.Cycles,
			Victims:    s.Detector.Victims + other.Detector.Victims,
			IntervalNS: interval,
		},
	}
	for i := 0; i <= maxShard; i++ {
		if sh, ok := byShard[i]; ok {
			out.Shards = append(out.Shards, sh)
		}
	}
	return out
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
		acq := s.acquires.Load()
		waits := s.waits.Load()
		wt := time.Duration(s.waitNS.Load())
		if acq == 0 && waits == 0 {
			continue
		}
		out.Acquires += acq
		out.Waits += waits
		out.WaitNS += wt
		out.Shards = append(out.Shards, ShardLockStats{
			Shard: i, Acquires: acq, Waits: waits, WaitNS: wt,
		})
	}
	d := &lt.det
	d.mu.Lock()
	out.Detector = DetectorStats{
		Sweeps: d.sweeps, Cycles: d.cycles, Victims: d.victims, IntervalNS: DefaultDetectorInterval,
	}
	d.mu.Unlock()
	return out
}
