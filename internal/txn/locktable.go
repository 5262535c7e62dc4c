package txn

import (
	"sync"
	"sync/atomic"
	"time"
)

// numLockShards is the number of independent lock-table shards. Must be
// a power of two (shard selection masks the key hash). 64 shards keep
// the probability of two hot records colliding low while the per-shard
// footprint stays tiny.
const numLockShards = 64

// ResourceKey is a precomputed lock-table key: the resource name plus
// its shard assignment. Stores build one key per record when the record
// is created and reuse it on every acquire, which keeps the lock path
// free of string concatenation and hashing. Build with NewResourceKey;
// the zero ResourceKey names the empty resource.
type ResourceKey struct {
	name  string
	shard uint32
}

// NewResourceKey builds a key for the named resource. The name is the
// identity: two keys with the same name always map to the same lock.
func NewResourceKey(name string) ResourceKey {
	return ResourceKey{name: name, shard: fnv32a(name) & (numLockShards - 1)}
}

// String returns the resource name.
func (k ResourceKey) String() string { return k.name }

// fnv32a is the 32-bit FNV-1a hash (inlined to avoid hash/fnv's
// allocating Writer interface).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// DefaultDetectorInterval is the cadence of the background deadlock
// detector: the upper bound a deadlocked transaction waits before a
// sweep finds the cycle and marks a victim.
const DefaultDetectorInterval = time.Millisecond

// lockTable implements strict two-phase locking over string-named
// resources with one lock mode, exclusive: snapshot readers never lock,
// so every lock is a writer's, held to commit. The table is striped:
// entries are sharded by resource-key hash, each shard with its own
// mutex and condition variable, so acquires of unrelated resources
// never contend and a release only wakes waiters in its own shard.
//
// An entry is created on the first acquire of its name and stays in
// the shard's map after release, so steady-state acquires of a hot
// record allocate nothing. Idle entries (no holder, no waiter) are
// removed by sweepEntries at a GC point — see lockgc.go.
//
// Deadlock detection is batched: a blocked acquire only records its
// wait-for edge; a background sweeper goroutine — spawned when the
// first waiter appears, exiting when the graph drains — runs one DFS
// over the whole cross-shard graph per interval and marks victims.
type lockTable struct {
	shards [numLockShards]lockShard
	det    detector
}

type lockShard struct {
	mu   sync.Mutex
	cond *sync.Cond
	// entries maps resource name -> lock entry; guarded by mu.
	entries map[string]*lockEntry
	// Telemetry. Atomics so a stats snapshot never takes mu.
	acquires atomic.Uint64 // acquire calls routed to this shard
	waits    atomic.Uint64 // acquires that blocked at least once
	waitNS   atomic.Int64  // wall time spent asleep in cond.Wait
}

// lockEntry is the state of one lock, guarded by its shard mutex.
type lockEntry struct {
	// holder is the transaction holding the lock; 0 when free
	// (transaction IDs start at 1).
	holder uint64
	// waiters counts transactions currently asleep on this entry; the
	// sweep never removes an entry a waiter will wake up on.
	waiters int
}

// heldLock records one lock held by a transaction: the key and the
// entry it was granted on. A held entry is never swept, so release
// reaches it without a map lookup.
type heldLock struct {
	key   ResourceKey
	entry *lockEntry
}

// detector owns the cross-shard deadlock state: the wait-for graph, the
// set of chosen victims, and which shard each waiter sleeps on (so a
// victim can be woken wherever it blocks). Its mutex is a leaf: it is
// taken while holding at most one shard mutex and never the other way
// around — the background sweeper collects victims under det.mu, drops
// it, and only then takes shard mutexes to broadcast.
type detector struct {
	mu sync.Mutex
	// waitsFor[a] = set of txIDs that a is currently waiting on.
	waitsFor map[uint64]map[uint64]struct{}
	// aborted marks waiters chosen as deadlock victims so they stop
	// waiting and return ErrDeadlock.
	aborted map[uint64]struct{}
	// waitShard records the shard each waiting transaction blocks on.
	waitShard map[uint64]*lockShard
	// running is true while the background sweeper goroutine is alive.
	// It is spawned by the first waiter and exits when the graph
	// drains, so idle managers cost nothing.
	running bool
	// Telemetry, guarded by mu.
	sweeps  uint64 // background passes over the whole wait-for graph
	cycles  uint64 // cycles found across all sweeps
	victims uint64 // transactions marked as deadlock victims
}

func newLockTable() *lockTable {
	lt := &lockTable{
		det: detector{
			waitsFor:  make(map[uint64]map[uint64]struct{}),
			aborted:   make(map[uint64]struct{}),
			waitShard: make(map[uint64]*lockShard),
		},
	}
	for i := range lt.shards {
		s := &lt.shards[i]
		s.cond = sync.NewCond(&s.mu)
		s.entries = make(map[string]*lockEntry)
	}
	return lt
}

// acquire blocks until txID holds key's lock or is chosen as a deadlock
// victim. The caller must not already hold the lock (Tx.lock filters
// re-entry). waited reports whether the call ever blocked (and
// therefore registered state in the detector); entry is the lock entry
// (valid on every return, for release bookkeeping).
func (lt *lockTable) acquire(txID uint64, key ResourceKey) (waited bool, entry *lockEntry, err error) {
	s := &lt.shards[key.shard]
	s.acquires.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key.name]
	if e == nil {
		e = &lockEntry{}
		s.entries[key.name] = e
	}
	for {
		if waited {
			// Refresh our wait edge each retry so a released holder does
			// not linger in the graph and cause spurious victims, and
			// honor a victim marking before re-checking grantability.
			// A transaction that never waited has no detector state, so
			// the uncontended path skips the detector lock entirely.
			lt.det.clearWaits(txID)
			if lt.det.consumeAborted(txID) {
				return true, e, ErrDeadlock
			}
		}
		if e.holder == 0 {
			e.holder = txID
			if waited {
				lt.det.onGrant(txID)
			}
			return waited, e, nil
		}
		// Record the wait edge to the holder, then sleep; the
		// background detector sweeps the graph for cycles.
		lt.det.addWait(txID, e.holder, s)
		if !waited {
			s.waits.Add(1)
			waited = true
		}
		// Time each sleep individually so only genuinely blocked time
		// lands in waitNS — awake retry work is not billed.
		e.waiters++
		sleepStart := time.Now()
		s.cond.Wait()
		e.waiters--
		s.waitNS.Add(int64(time.Since(sleepStart)))
	}
}

// release drops the given locks held by txID, waking only the affected
// shards, and clears the transaction's detector state when it ever
// waited.
func (lt *lockTable) release(txID uint64, held []heldLock, waited bool) {
	for i := range held {
		h := &held[i]
		s := &lt.shards[h.key.shard]
		s.mu.Lock()
		h.entry.holder = 0
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	if waited {
		lt.det.clearTx(txID)
	}
}

// --- detector ---

// addWait records txID's wait edge to blocker (noting the shard it
// will sleep on) and ensures the background sweeper is running. No
// cycle search happens here: the sweeper finds cycles in batch, so a
// blocked acquire pays one map update instead of a graph traversal.
func (d *detector) addWait(txID, blocker uint64, s *lockShard) {
	d.mu.Lock()
	w := d.waitsFor[txID]
	if w == nil {
		w = make(map[uint64]struct{}, 1)
		d.waitsFor[txID] = w
	}
	w[blocker] = struct{}{}
	d.waitShard[txID] = s
	if !d.running {
		// First waiter: spawn the sweeper, which sweeps immediately —
		// an isolated deadlock is found without waiting an interval.
		d.running = true
		go d.run()
	}
	d.mu.Unlock()
}

// run is the background sweeper: one DFS pass over the whole wait-for
// graph per interval while waiters exist, exiting when the graph
// drains. Victims are marked under the detector mutex, but their shards
// are only broadcast after it is dropped (shard mutexes order before
// the detector mutex everywhere else).
func (d *detector) run() {
	for {
		d.mu.Lock()
		if len(d.waitsFor) == 0 {
			d.running = false
			d.mu.Unlock()
			return
		}
		d.sweeps++
		wake := d.sweepLocked()
		d.mu.Unlock()
		for _, s := range wake {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		time.Sleep(DefaultDetectorInterval)
	}
}

// sweepLocked finds every cycle currently in the graph, marking one
// victim per cycle, and returns the shards to wake. Marked victims are
// excluded from further traversal (they will abort and release), so
// each iteration either finds a new cycle or terminates. The done memo
// is shared across iterations — marking a victim only removes
// traversable edges, which cannot make a fully-explored cycle-free
// node part of a cycle — so one sweep visits each settled node once
// however many victims it marks. Callers hold d.mu.
func (d *detector) sweepLocked() []*lockShard {
	var wake []*lockShard
	done := map[uint64]bool{}
	for {
		victim, found := d.findCycleVictim(done)
		if !found {
			return wake
		}
		d.cycles++
		d.victims++
		d.aborted[victim] = struct{}{}
		if s := d.waitShard[victim]; s != nil {
			wake = append(wake, s)
		}
	}
}

// clearWaits removes txID's outgoing wait edges; incoming edges from
// other waiters are refreshed when they retry.
func (d *detector) clearWaits(txID uint64) {
	d.mu.Lock()
	delete(d.waitsFor, txID)
	delete(d.waitShard, txID)
	d.mu.Unlock()
}

// consumeAborted reports (and clears) a victim marking.
func (d *detector) consumeAborted(txID uint64) bool {
	d.mu.Lock()
	_, victim := d.aborted[txID]
	if victim {
		delete(d.aborted, txID)
	}
	d.mu.Unlock()
	return victim
}

// onGrant clears all detector state of a transaction whose lock was
// just granted. A granted transaction cannot sit on a genuine cycle (a
// true blocker can never release while itself blocked), so discarding a
// concurrent victim marking here is safe and prevents a stale flag from
// spuriously killing the transaction's next acquire.
func (d *detector) onGrant(txID uint64) {
	d.mu.Lock()
	delete(d.waitsFor, txID)
	delete(d.waitShard, txID)
	delete(d.aborted, txID)
	d.mu.Unlock()
}

// clearTx drops every trace of txID at transaction end.
func (d *detector) clearTx(txID uint64) {
	d.mu.Lock()
	delete(d.waitsFor, txID)
	delete(d.waitShard, txID)
	delete(d.aborted, txID)
	d.mu.Unlock()
}

// findCycleVictim searches the whole wait-for graph for a cycle and
// returns the youngest (highest-ID) transaction on it as the victim.
// Higher ID means started later, so less work is wasted. Transactions
// already marked as victims are skipped — their cycles are being torn
// down. done memoizes nodes fully explored without a cycle (valid for
// the whole sweep, see sweepLocked). Callers hold d.mu.
func (d *detector) findCycleVictim(done map[uint64]bool) (victim uint64, found bool) {
	// Iterative DFS from every node, tracking the path to recover cycle
	// membership.
	for start := range d.waitsFor {
		if done[start] {
			continue
		}
		if _, ab := d.aborted[start]; ab {
			continue
		}
		if v, ok := d.dfsFrom(start, done); ok {
			return v, true
		}
	}
	return 0, false
}

func (d *detector) dfsFrom(start uint64, done map[uint64]bool) (victim uint64, found bool) {
	type frame struct {
		node uint64
		next []uint64
	}
	onPath := map[uint64]bool{}
	var path []uint64
	push := func(n uint64) frame {
		var succ []uint64
		for s := range d.waitsFor[n] {
			if _, ab := d.aborted[s]; !ab {
				succ = append(succ, s)
			}
		}
		onPath[n] = true
		path = append(path, n)
		return frame{node: n, next: succ}
	}
	stack := []frame{push(start)}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.next) == 0 {
			onPath[top.node] = false
			done[top.node] = true
			path = path[:len(path)-1]
			stack = stack[:len(stack)-1]
			continue
		}
		n := top.next[len(top.next)-1]
		top.next = top.next[:len(top.next)-1]
		if onPath[n] {
			// Cycle: path from n..end plus n. Pick youngest.
			victim = n
			seen := false
			for _, p := range path {
				if p == n {
					seen = true
				}
				if seen && p > victim {
					victim = p
				}
			}
			return victim, true
		}
		if done[n] {
			continue
		}
		if _, hasEdges := d.waitsFor[n]; hasEdges {
			stack = append(stack, push(n))
		} else {
			done[n] = true
		}
	}
	return 0, false
}
