package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keysOnDistinctShards generates n resource keys guaranteed to live on
// n different lock-table shards, so cross-shard paths are exercised
// deterministically rather than by hash luck.
func keysOnDistinctShards(t *testing.T, n int) []ResourceKey {
	t.Helper()
	if n > numLockShards {
		t.Fatalf("cannot place %d keys on %d shards", n, numLockShards)
	}
	var keys []ResourceKey
	used := map[uint32]bool{}
	for i := 0; len(keys) < n; i++ {
		k := NewResourceKey(fmt.Sprintf("shard-probe-%d", i))
		if !used[k.shard] {
			used[k.shard] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLockAcquireReleaseZeroAlloc pins the tentpole property: steady-
// state exclusive acquire + release on a precomputed (interned) key
// performs zero allocations. AllocsPerRun's warm-up call absorbs the
// one-time entry allocation; afterwards the kept entry is reused
// forever.
func TestLockAcquireReleaseZeroAlloc(t *testing.T) {
	lt := newLockTable()
	key := NewResourceKey("orders/o-000042")
	e, err := lt.acquire(1, key)
	if err != nil {
		t.Fatal(err)
	}
	held := []heldLock{{key: key, entry: e}}
	lt.release(held)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := lt.acquire(1, key); err != nil {
			t.Fatal(err)
		}
		lt.release(held)
	})
	if allocs != 0 {
		t.Errorf("acquire+release on interned key allocated %.1f times per run, want 0", allocs)
	}
}

// TestResourceKeyStability checks that a rebuilt key addresses the same
// lock as the interned one (the name is the identity).
func TestResourceKeyStability(t *testing.T) {
	a := NewResourceKey("store/x")
	b := NewResourceKey("store/x")
	if a != b {
		t.Fatalf("same name produced different keys: %+v vs %+v", a, b)
	}
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := t1.LockExclusiveKey(a); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- t2.LockExclusiveKey(b) }()
	select {
	case err := <-blocked:
		t.Fatalf("rebuilt key did not conflict with interned key (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Correctly blocked on the same lock.
	}
	t1.Abort()
	if err := <-blocked; err != nil {
		t.Fatalf("waiter after release: %v", err)
	}
}

// TestCrossShardDeadlockCycle builds a 4-cycle whose resources sit on
// four different shards and verifies the detector still breaks it: the
// detector's wait-for graph spans the shards, so the acquire that
// closes the cycle fails at once on its own shard, and its abort wakes
// the waiter on the key it held.
func TestCrossShardDeadlockCycle(t *testing.T) {
	keys := keysOnDistinctShards(t, 4)
	m := NewManager()
	txs := make([]*Tx, 4)
	for i := range txs {
		txs[i] = m.Begin()
		if err := txs[i].LockExclusiveKey(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 4)
	for i, tx := range txs {
		go func(i int, tx *Tx) {
			err := tx.LockExclusiveKey(keys[(i+1)%4])
			tx.Abort()
			errs <- err
		}(i, tx)
	}
	deadlocks := 0
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err == ErrDeadlock {
				deadlocks++
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cross-shard 4-cycle not resolved")
		}
	}
	if deadlocks == 0 {
		t.Fatal("no victim chosen in cross-shard cycle")
	}
}

// TestDeadlockCloserFailsWithoutBlocking pins the victim policy: in an
// AB-BA cycle the transaction whose wait would close the cycle fails at
// once, in its own goroutine, without ever sleeping, and the waiter it
// would have closed on gets its lock from the abort.
func TestDeadlockCloserFailsWithoutBlocking(t *testing.T) {
	m := NewManager()
	a, b := NewResourceKey("closer-a"), NewResourceKey("closer-b")
	tx1, tx2 := m.Begin(), m.Begin()
	if err := tx1.LockExclusiveKey(a); err != nil {
		t.Fatal(err)
	}
	if err := tx2.LockExclusiveKey(b); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- tx1.LockExclusiveKey(b) }()
	waitFor(t, "tx1 to block", func() bool { return m.LockStats().Waits == 1 })
	if err := tx2.LockExclusiveKey(a); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("closing acquire = %v, want ErrDeadlock", err)
	}
	s := m.LockStats()
	if s.Waits != 1 {
		t.Errorf("waits = %d, want 1: the closer must not sleep", s.Waits)
	}
	if s.Detector.Victims != 1 {
		t.Errorf("victims = %d, want 1", s.Detector.Victims)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("tx1 after tx2's abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tx1 not granted after the closer aborted")
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitChainIsNotACycle lines three waiters up behind a running
// head, each on a lock of another shard: a chain that never comes back
// to its waiter is no deadlock, so nobody is chosen as a victim and all
// three commit once the head releases.
func TestWaitChainIsNotACycle(t *testing.T) {
	keys := keysOnDistinctShards(t, 4)
	m := NewManager()
	txs := make([]*Tx, 4)
	for i := range txs {
		txs[i] = m.Begin()
		if err := txs[i].LockExclusiveKey(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	for i := 1; i < 4; i++ {
		go func(tx *Tx, key ResourceKey) {
			err := tx.LockExclusiveKey(key)
			if err == nil {
				_, err = tx.Commit()
			}
			errs <- err
		}(txs[i], keys[i-1])
		waitFor(t, fmt.Sprintf("waiter %d to block", i), func() bool {
			return m.LockStats().Waits == uint64(i)
		})
	}
	if _, err := txs[0].Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("chain waiter: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("wait chain did not drain after the head committed")
		}
	}
	if v := m.LockStats().Detector.Victims; v != 0 {
		t.Errorf("victims = %d, want 0 for a chain", v)
	}
}

// TestCrossShardDeadlockStress hammers a small resource pool spread
// over distinct shards with transactions locking random pairs in both
// orders — a deadlock storm — and requires every transaction to
// eventually commit via retry and none to stay open.
func TestCrossShardDeadlockStress(t *testing.T) {
	keys := keysOnDistinctShards(t, 8)
	m := NewManager()
	const workers = 8
	const iters = 150
	var committed atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w*2654435761 + 1)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng>>33) % n
			}
			for i := 0; i < iters; i++ {
				a, b := next(len(keys)), next(len(keys))
				if a == b {
					b = (a + 1) % len(keys)
				}
				// Deliberately NOT canonical order: half the workers
				// lock high-then-low, guaranteeing cross-shard cycles.
				if w%2 == 1 {
					a, b = b, a
				}
				err := m.RunWith(50, func(tx *Tx) error {
					if err := tx.LockExclusiveKey(keys[a]); err != nil {
						return err
					}
					return tx.LockExclusiveKey(keys[b])
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run hung: lost wakeup or undetected deadlock")
	}
	if committed.Load() != workers*iters {
		t.Fatalf("committed %d, want %d", committed.Load(), workers*iters)
	}
	if m.ActiveCount() != 0 {
		t.Errorf("active transactions leaked: %d", m.ActiveCount())
	}
}

// TestUncontendedParallelAcquires drives disjoint resources from many
// goroutines: no acquire may ever block or abort, whatever shard each
// key lands on.
func TestUncontendedParallelAcquires(t *testing.T) {
	m := NewManager()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := NewResourceKey(fmt.Sprintf("private/%d", w))
			for i := 0; i < 500; i++ {
				err := m.RunWith(0, func(tx *Tx) error {
					return tx.LockExclusiveKey(key)
				})
				if err != nil {
					t.Errorf("uncontended acquire failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkLockAcquireRelease pins the lock-path cost: interned keys
// must be allocation-free; the string path pays the concatenation and
// hash that stores used to pay on every single lock call.
func BenchmarkLockAcquireRelease(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		lt := newLockTable()
		key := NewResourceKey("orders/o-000042")
		e, err := lt.acquire(1, key)
		if err != nil {
			b.Fatal(err)
		}
		held := []heldLock{{key: key, entry: e}}
		lt.release(held)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lt.acquire(1, key); err != nil {
				b.Fatal(err)
			}
			lt.release(held)
		}
	})
	b.Run("string", func(b *testing.B) {
		lt := newLockTable()
		store, id := "orders", "o-000042"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := NewResourceKey(store + "/" + id)
			e, err := lt.acquire(1, key)
			if err != nil {
				b.Fatal(err)
			}
			lt.release([]heldLock{{key: key, entry: e}})
		}
	})
}
