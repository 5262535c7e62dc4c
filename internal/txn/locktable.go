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

// lockTable implements strict two-phase locking over string-named
// resources with one lock mode, exclusive: snapshot readers never lock,
// so every lock is a writer's, held to commit. The table is striped:
// entries are sharded by resource-key hash, each shard with its own
// mutex and condition variable, so acquires of unrelated resources
// never contend and a release only wakes waiters in its own shard.
//
// An entry is in its shard's map while it has a holder or a waiter:
// acquire puts it there and the release that leaves it idle deletes it,
// so the map holds as many entries as locks are held or waited for,
// whatever names were ever locked (LockExisting locks the name of a
// missing key, too). A deleted entry goes on the shard's free list and
// the next new entry comes off it, so steady-state acquires of a hot
// record allocate nothing. A waiter never sleeps on a deleted entry: it
// counts itself in waiters under the shard mutex before it sleeps and
// uncounts itself after it wakes, and release deletes under that mutex
// only an entry whose waiters is 0.
//
// Deadlocks are caught at wait time by the detector, so no goroutine
// runs beside the transactions.
type lockTable struct {
	shards [numLockShards]lockShard
	det    detector
}

type lockShard struct {
	mu   sync.Mutex
	cond *sync.Cond
	// entries maps resource name -> lock entry; guarded by mu.
	entries map[string]*lockEntry
	// free lists the deleted entries, linked through next; guarded by mu.
	free *lockEntry
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
	// waiters counts transactions currently asleep on this entry;
	// release never deletes an entry a waiter will wake up on.
	waiters int
	// next links the entry into its shard's free list while deleted.
	next *lockEntry
}

// heldLock records one lock held by a transaction: the key and the
// entry it was granted on. A held entry is never deleted, so release
// reaches it without a map lookup.
type heldLock struct {
	key   ResourceKey
	entry *lockEntry
}

// detector holds the wait-for graph. With one lock mode a waiter waits
// for exactly one holder, so the graph is a function: waitsFor[T] = H
// while T sleeps on a lock H holds. Its mutex is a leaf, taken under at
// most one shard mutex.
//
// Every edge is checked as it goes in: before T sleeps on H, wait
// follows H's chain, and if the chain reaches T, T closes a cycle and
// fails with ErrDeadlock instead of sleeping. Three facts make that
// enough.
//   - The stored graph stays acyclic, since an edge that would close a
//     cycle is refused, so the walk ends.
//   - No false victim. An edge X→Y lives from X's wait until X is
//     granted or fails, so Y having an edge means Y is inside acquire,
//     not yet at commit or abort, and under strict 2PL still holds the
//     lock X waits for: X→Y is current. On a cycle every node has an
//     edge, so every edge of a cycle the walk finds is current, and
//     the first, T→H, is read under H's shard mutex.
//   - No missed cycle. An edge goes stale only when its target
//     releases, and that release broadcasts the owner's shard, so the
//     owner wakes and walks again from the new holder. Hence once every
//     transaction of a cycle sleeps, each edge is current, and the last
//     of them to write its edge walked the others': it closed the cycle
//     and failed instead of sleeping.
//
// The victim is the transaction that closes the cycle: it is the one
// running, so it needs no wake-up on another shard.
type detector struct {
	mu       sync.Mutex
	waitsFor map[uint64]uint64
	victims  uint64 // cycles closed; guarded by mu
}

func newLockTable() *lockTable {
	lt := &lockTable{det: detector{waitsFor: make(map[uint64]uint64)}}
	for i := range lt.shards {
		s := &lt.shards[i]
		s.cond = sync.NewCond(&s.mu)
		s.entries = make(map[string]*lockEntry)
	}
	return lt
}

// acquire blocks until txID holds key's lock, or returns ErrDeadlock
// when waiting would close a cycle. The caller must not already hold
// the lock (Tx.lock filters re-entry). entry is the lock entry (valid
// on every return, for release bookkeeping).
//
// Termination: each pass of the loop grants, returns ErrDeadlock, or
// sleeps until a release on the key's shard broadcasts. A sleeper
// waits on a holder whose chain does not come back to it; a cycle's
// closer never sleeps, so every chain of sleepers ends at a running
// transaction, whose commit or abort wakes the next.
func (lt *lockTable) acquire(txID uint64, key ResourceKey) (entry *lockEntry, err error) {
	s := &lt.shards[key.shard]
	s.acquires.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key.name]
	if e == nil {
		if e = s.free; e != nil {
			s.free, e.next = e.next, nil
		} else {
			e = &lockEntry{}
		}
		s.entries[key.name] = e
	}
	waited := false
	for {
		if e.holder == 0 {
			e.holder = txID
			if waited {
				lt.det.granted(txID)
			}
			return e, nil
		}
		if !lt.det.wait(txID, e.holder) {
			return e, ErrDeadlock
		}
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

// release drops the given locks, waking only the affected shards, and
// deletes each entry that no waiter sleeps on.
func (lt *lockTable) release(held []heldLock) {
	for i := range held {
		h := &held[i]
		s := &lt.shards[h.key.shard]
		s.mu.Lock()
		if e := h.entry; e.waiters > 0 {
			e.holder = 0
			s.cond.Broadcast()
		} else {
			delete(s.entries, h.key.name)
			*e = lockEntry{next: s.free}
			s.free = e
		}
		s.mu.Unlock()
	}
}

// wait records txID→holder and reports true, or, when holder's chain
// leads back to txID, drops txID's edge, counts a victim and reports
// false. The walk stops at txID, so txID's own (older) edge is never
// followed.
func (d *detector) wait(txID, holder uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for h, ok := holder, true; ok; h, ok = d.waitsFor[h] {
		if h == txID {
			delete(d.waitsFor, txID)
			d.victims++
			return false
		}
	}
	d.waitsFor[txID] = holder
	return true
}

// granted drops the edge of a waiter that got its lock.
func (d *detector) granted(txID uint64) {
	d.mu.Lock()
	delete(d.waitsFor, txID)
	d.mu.Unlock()
}
