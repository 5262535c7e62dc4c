package txn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A storm of locks on names that are never locked again (the
// LockExisting-miss pattern: a write to a key that does not exist locks
// its name) must not grow the lock table: each release forgets the
// entry it leaves idle, so the table holds as many entries as locks
// held.
func TestSweepReclaimsMissStorm(t *testing.T) {
	m := NewManager()
	const misses = 5000
	for i := 0; i < misses; i++ {
		tx := m.Begin()
		if err := tx.LockExclusive(fmt.Sprintf("ghost/%d", i)); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		if n := m.LockEntries(); n != 0 {
			t.Fatalf("miss %d left %d lock entries, want 0", i, n)
		}
	}

	// One transaction holding every name: one entry per lock, then none.
	tx := m.Begin()
	for i := 0; i < misses; i++ {
		if err := tx.LockExclusive(fmt.Sprintf("ghost/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.LockEntries(); n != misses {
		t.Fatalf("%d entries with %d locks held", n, misses)
	}
	tx.Abort()
	if n := m.LockEntries(); n != 0 {
		t.Fatalf("%d entries survive the release, want 0", n)
	}

	// Forgotten names remain fully lockable: entries are reused on use.
	tx = m.Begin()
	if err := tx.LockExclusive("ghost/7"); err != nil {
		t.Fatal(err)
	}
	tx2 := m.Begin()
	if err := tx2.LockExclusive("ghost/8"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	tx2.Abort()
}

// A held entry, and one a waiter sleeps on, stays in the table: the
// release that passes a lock to its waiter must not forget the entry,
// or the waiter would hold a lock the table no longer lists, and the
// lock would stop excluding.
func TestSweepSkipsHeldEntries(t *testing.T) {
	m := NewManager()

	wr := m.Begin()
	if err := wr.LockExclusive("held/x"); err != nil {
		t.Fatal(err)
	}
	wr2 := m.Begin()
	if err := wr2.LockExclusive("held/y"); err != nil {
		t.Fatal(err)
	}
	if n := m.LockEntries(); n != 2 {
		t.Fatalf("%d entries with two locks held, want 2", n)
	}

	// lockAsleep starts a transaction locking held/x and returns once it
	// has counted its wait: it counts under the shard mutex and keeps
	// the mutex until it sleeps, so a release after this sees it.
	lockAsleep := func() chan *Tx {
		waits := m.LockStats().Waits
		granted := make(chan *Tx, 1)
		go func() {
			tx := m.Begin()
			if err := tx.LockExclusive("held/x"); err != nil {
				t.Error(err)
			}
			granted <- tx
		}()
		for m.LockStats().Waits == waits {
			time.Sleep(100 * time.Microsecond)
		}
		return granted
	}

	granted := lockAsleep()
	wr.Abort()
	waiter := <-granted
	if n := m.LockEntries(); n != 2 {
		t.Fatalf("%d entries after the lock passed to its waiter, want 2", n)
	}
	// The lock still excludes: a third transaction waits for the waiter.
	third := lockAsleep()
	select {
	case <-third:
		t.Fatal("held/x granted to two transactions")
	case <-time.After(20 * time.Millisecond):
	}
	waiter.Abort()
	(<-third).Abort()
	wr2.Abort()
	if n := m.LockEntries(); n != 0 {
		t.Fatalf("%d entries after every release, want 0", n)
	}
}

// Forgetting racing lock traffic must never grant two owners or lose a
// release: every acquire of a name lands on the one live entry, though
// entries leave the table and come back off the free list all the time.
// The names share one shard, so one name's freed entry is the next
// entry of another, and a holder yields so that releases find waiters.
// Run under -race, this is the memory-safety gate for
// the free list.
func TestSweepRacesLockTraffic(t *testing.T) {
	m := NewManager()
	const (
		workers = 8
		rounds  = 400
		names   = 7
	)
	var hot []string
	shard := NewResourceKey("hot/0").shard
	for i := 0; len(hot) < names; i++ {
		if name := fmt.Sprintf("hot/%d", i); NewResourceKey(name).shard == shard {
			hot = append(hot, name)
		}
	}
	var owners [names]atomic.Int32
	var traffic sync.WaitGroup
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				n := (i + w) % names
				if err := tx.LockExclusive(hot[n]); err != nil {
					t.Errorf("worker %d: %v", w, err)
				} else {
					if owners[n].Add(1) != 1 {
						t.Errorf("worker %d: two owners of %s", w, hot[n])
					}
					runtime.Gosched() // hold the lock while others queue on it
					owners[n].Add(-1)
				}
				tx.Abort()
			}
		}(w)
	}
	traffic.Wait()
	if n := m.LockEntries(); n != 0 {
		t.Fatalf("%d entries after the traffic, want 0", n)
	}
}
