package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOracleMonotonic(t *testing.T) {
	var o Oracle
	if o.Current() != 0 {
		t.Fatal("fresh oracle should be at 0")
	}
	prev := TS(0)
	for i := 0; i < 1000; i++ {
		ts := o.Next()
		if ts <= prev {
			t.Fatalf("timestamps not increasing: %d after %d", ts, prev)
		}
		prev = ts
	}
	if o.Current() != prev {
		t.Error("Current should equal last issued")
	}
}

func TestOracleConcurrent(t *testing.T) {
	var o Oracle
	const workers, per = 8, 500
	seen := make([]map[TS]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seen[w] = make(map[TS]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seen[w][o.Next()] = true
			}
		}(w)
	}
	wg.Wait()
	all := make(map[TS]bool)
	for _, m := range seen {
		for ts := range m {
			if all[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			all[ts] = true
		}
	}
	if len(all) != workers*per {
		t.Fatalf("expected %d unique timestamps, got %d", workers*per, len(all))
	}
}

func TestTxLifecycle(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if tx.Status() != StatusActive {
		t.Fatal("fresh tx should be active")
	}
	if m.ActiveCount() != 1 {
		t.Fatal("ActiveCount should be 1")
	}
	ts, err := tx.Commit()
	if err != nil || ts == 0 {
		t.Fatalf("commit failed: %v", err)
	}
	if tx.Status() != StatusCommitted {
		t.Error("status should be committed")
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Error("double commit should return ErrTxClosed")
	}
	if err := tx.LockExclusive("r"); !errors.Is(err, ErrTxClosed) {
		t.Error("lock on closed tx should fail")
	}
	if m.ActiveCount() != 0 {
		t.Fatal("ActiveCount should drop to 0")
	}
	c, a := m.Stats()
	if c != 1 || a != 0 {
		t.Errorf("stats = (%d, %d), want (1, 0)", c, a)
	}
}

func TestAbortRunsUndoInReverse(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var order []int
	tx.OnUndo(func() { order = append(order, 1) })
	tx.OnUndo(func() { order = append(order, 2) })
	tx.Abort()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("undo order = %v, want [2 1]", order)
	}
	tx.Abort() // no-op
	_, a := m.Stats()
	if a != 1 {
		t.Errorf("aborts = %d, want 1", a)
	}
}

func TestCommitHooksReceiveCommitTS(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var got TS
	tx.OnCommit(func(ts TS) { got = ts })
	want, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hook ts = %d, commit ts = %d", got, want)
	}
}

func TestExclusiveLockBlocksAndReleases(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	if err := t1.LockExclusive("k"); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		t2 := m.Begin()
		if err := t2.LockExclusive("k"); err != nil {
			t.Errorf("t2 lock: %v", err)
		}
		close(acquired)
		t2.Abort()
	}()
	select {
	case <-acquired:
		t.Fatal("t2 acquired lock while t1 held it")
	case <-time.After(30 * time.Millisecond):
	}
	t1.Abort()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("t2 never acquired lock after release")
	}
}

func TestLockReentrancy(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	for i := 0; i < 3; i++ {
		if err := tx.LockExclusive("k"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tx.heldLocks); got != 1 {
		t.Fatalf("reentrant acquires hold %d locks, want 1", got)
	}
	tx.Abort()
}

// TestLockHeavyTransactionIndex drives a transaction past the held-
// lock index threshold and verifies reentrancy and release still
// behave on the indexed lookup path.
func TestLockHeavyTransactionIndex(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	const n = 3 * heldIndexThreshold
	keys := make([]ResourceKey, n)
	for i := range keys {
		keys[i] = NewResourceKey(fmt.Sprintf("many/%03d", i))
		if err := tx.LockExclusiveKey(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Reacquire a key found via the index (past threshold).
	probe := n - 2
	if err := tx.LockExclusiveKey(keys[probe]); err != nil {
		t.Fatal(err)
	}
	if got := len(tx.heldLocks); got != n {
		t.Fatalf("reentrant acquire grew heldLocks to %d, want %d", got, n)
	}
	// The held lock must exclude another transaction.
	t2 := m.Begin()
	blocked := make(chan error, 1)
	go func() { blocked <- t2.LockExclusiveKey(keys[probe]) }()
	select {
	case err := <-blocked:
		t.Fatalf("lock granted on a held key (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx.Abort() // releases all n locks through the records
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	t2.Abort()
	if m.ActiveCount() != 0 {
		t.Errorf("active transactions leaked: %d", m.ActiveCount())
	}
}

// TestTxReadOnly pins what the join cache's certification relies on:
// a transaction is read-only until it stages a write or takes a lock,
// and a LockExisting miss takes an exclusive lock with no undo.
func TestTxReadOnly(t *testing.T) {
	m := NewManager()
	recs := NewRecords[int](m, "ro/")
	if err := m.RunWith(0, func(tx *Tx) error {
		c, err := recs.Lock(tx, "a")
		if err == nil {
			recs.Stage(tx, c, 1, false)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	if !tx.ReadOnly() {
		t.Error("fresh tx is not read-only")
	}
	if v, ok := recs.Get(tx, "a"); !ok || v != 1 {
		t.Fatalf("get a = (%d, %v), want (1, true)", v, ok)
	}
	recs.Scan(tx, "", "", func(string, int) bool { return true })
	if !tx.ReadOnly() {
		t.Error("tx that only read is not read-only")
	}
	tx.Abort()

	tx = m.Begin()
	c, err := recs.Lock(tx, "b")
	if err != nil {
		t.Fatal(err)
	}
	recs.Stage(tx, c, 2, false)
	if tx.ReadOnly() {
		t.Error("tx with a staged write is read-only")
	}
	tx.Abort()

	tx = m.Begin()
	if _, ok, err := recs.LockExisting(tx, "missing"); err != nil || ok {
		t.Fatalf("LockExisting(missing) = (%v, %v), want (false, nil)", ok, err)
	}
	if tx.ReadOnly() {
		t.Error("tx holding a LockExisting miss lock is read-only")
	}
	tx.Abort()
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	if err := t1.LockExclusive("a"); err != nil {
		t.Fatal(err)
	}
	if err := t2.LockExclusive("b"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- t1.LockExclusive("b") }()
	go func() { errs <- t2.LockExclusive("a") }()
	var deadlocks, successes int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocks++
			} else if err == nil {
				successes++
			} else {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock not detected within 5s")
		}
	}
	if deadlocks < 1 {
		t.Fatalf("expected at least one deadlock victim, got %d (successes %d)", deadlocks, successes)
	}
	t1.Abort()
	t2.Abort()
}

func TestRunWithRetriesDeadlock(t *testing.T) {
	m := NewManager()
	var calls atomic.Int32
	err := m.RunWith(3, func(tx *Tx) error {
		if calls.Add(1) < 3 {
			return ErrDeadlock
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunWith should succeed after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
}

func TestRunWithNonDeadlockErrorNoRetry(t *testing.T) {
	m := NewManager()
	boom := errors.New("boom")
	var calls atomic.Int32
	err := m.RunWith(5, func(tx *Tx) error {
		calls.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("non-deadlock errors must not retry, calls = %d", calls.Load())
	}
}

func TestConcurrentCountersNoLostUpdates(t *testing.T) {
	m := NewManager()
	var chain Chain[int]
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := m.RunWith(100, func(tx *Tx) error {
					if err := tx.LockExclusive("counter"); err != nil {
						return err
					}
					cur, _ := chain.Read(tx.BeginTS(), tx.ID())
					// Read latest committed for counter semantics:
					// under 2PL the lock serializes us, so latest is safe.
					latest, _ := chain.ReadLatest()
					if latest > cur {
						cur = latest
					}
					chain.Write(tx.ID(), cur+1, false)
					tx.OnUndo(func() { chain.Rollback(tx.ID()) })
					tx.OnCommit(func(ts TS) { chain.CommitStamp(tx.ID(), ts) })
					return nil
				})
				if err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	final, ok := chain.ReadLatest()
	if !ok || final != workers*per {
		t.Fatalf("final counter = %d (ok=%v), want %d", final, ok, workers*per)
	}
}

func TestStatusString(t *testing.T) {
	if StatusActive.String() != "active" || StatusCommitted.String() != "committed" ||
		StatusAborted.String() != "aborted" {
		t.Error("status strings wrong")
	}
	if Status(9).String() != "status(9)" {
		t.Error("unknown status string wrong")
	}
}

// TestEpochCommitNoTornReads hammers the epoch commit protocol: every
// writer updates two chains to the same value inside one transaction;
// a concurrent Begin must never observe the two chains at different
// values — the torn state the old commitMu existed to prevent, now
// guaranteed by publish-in-order.
func TestEpochCommitNoTornReads(t *testing.T) {
	m := NewManager()
	var a, b Chain[int]
	ka, kb := NewResourceKey("torn/a"), NewResourceKey("torn/b")
	commitBoth := func(v int) error {
		return m.RunWith(0, func(tx *Tx) error {
			if err := tx.LockExclusiveKey(ka); err != nil {
				return err
			}
			if err := tx.LockExclusiveKey(kb); err != nil {
				return err
			}
			a.Write(tx.ID(), v, false)
			b.Write(tx.ID(), v, false)
			id := tx.ID()
			tx.OnUndo(func() { a.Rollback(id); b.Rollback(id) })
			tx.OnCommit(func(ts TS) { a.CommitStamp(id, ts); b.CommitStamp(id, ts) })
			return nil
		})
	}
	if err := commitBoth(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var writes atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := commitBoth(w*1000 + i); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
				writes.Add(1)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Begin()
				va, _ := a.Read(tx.BeginTS(), tx.ID())
				vb, _ := b.Read(tx.BeginTS(), tx.ID())
				tx.Abort()
				if va != vb {
					t.Errorf("torn read: a=%d b=%d at snapshot %d", va, vb, tx.BeginTS())
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for writes.Load() < 4*200 {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("writers did not finish")
	}
	close(stop)
	wg.Wait()
}

// TestCommitVisibleToSubsequentBegin pins read-your-writes across the
// epoch publish step: once Commit returns, any Begin — from any
// goroutine — must snapshot at or above that commit, even while other
// commits are in flight and the watermark is advancing out of order.
func TestCommitVisibleToSubsequentBegin(t *testing.T) {
	m := NewManager()
	const workers, iters = 8, 300
	chains := make([]Chain[int], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := NewResourceKey(fmt.Sprintf("ryw/%d", w))
			c := &chains[w]
			for i := 1; i <= iters; i++ {
				err := m.RunWith(0, func(tx *Tx) error {
					if err := tx.LockExclusiveKey(key); err != nil {
						return err
					}
					c.Write(tx.ID(), i, false)
					id := tx.ID()
					tx.OnUndo(func() { c.Rollback(id) })
					tx.OnCommit(func(ts TS) { c.CommitStamp(id, ts) })
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// The write committed; a fresh snapshot must see it.
				tx := m.Begin()
				got, ok := c.Read(tx.BeginTS(), tx.ID())
				tx.Abort()
				if !ok || got != i {
					t.Errorf("worker %d: begin after commit read %d (ok=%v), want %d", w, got, ok, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkEpochCommit measures the Begin+Commit round trip with no
// locks: the old commitMu made every Begin take a read lock and every
// Commit a write lock; the epoch protocol is two atomic loads and a
// publish.
func BenchmarkEpochCommit(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := m.Begin()
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
