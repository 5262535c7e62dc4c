package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// A storm of locks on names that are never locked again (the
// LockExisting-miss pattern: a write to a key that does not exist locks
// its name) must not grow the lock table forever: a sweep at a GC
// point reclaims every idle entry.
func TestSweepReclaimsMissStorm(t *testing.T) {
	m := NewManager()
	base := m.LockEntryCount()

	const misses = 5000
	for i := 0; i < misses; i++ {
		tx := m.Begin()
		if err := tx.LockExclusive(fmt.Sprintf("ghost/%d", i)); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	if got := m.LockEntryCount(); got < base+misses {
		t.Fatalf("expected >= %d entries after miss storm, got %d", base+misses, got)
	}

	removed := m.SweepLockEntries()
	if removed < misses {
		t.Fatalf("sweep removed %d entries, want >= %d", removed, misses)
	}
	if got := m.LockEntryCount(); got > base {
		t.Fatalf("%d entries survive the sweep, want <= %d", got, base)
	}

	// Swept names remain fully lockable: entries are recreated on use.
	tx := m.Begin()
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

// Entries with a live holder must survive the sweep, and their locks
// must keep excluding.
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

	m.SweepLockEntries()

	// The lock still excludes after the sweep: a second writer must
	// conflict, not be granted on a fresh orphan entry.
	blocked := make(chan struct{})
	go func() {
		tx := m.Begin()
		defer tx.Abort()
		_ = tx.LockExclusive("held/x") // blocks until wr aborts
		close(blocked)
	}()
	wr.Abort()
	<-blocked

	// The second held entry survived too: releasing it must not touch
	// freed state (the race detector would flag it).
	wr2.Abort()

	if removed := m.SweepLockEntries(); removed < 2 {
		t.Fatalf("post-release sweep removed %d, want >= 2", removed)
	}
}

// Sweeps racing lock traffic must never grant two owners or lose a
// release: an entry with a holder or a sleeping waiter is never
// removed, so every acquire of a name lands on the one live entry. Run
// under -race, this is the memory-safety gate for the GC.
func TestSweepRacesLockTraffic(t *testing.T) {
	m := NewManager()
	const (
		workers = 8
		rounds  = 400
		names   = 7
	)
	var owners [names]atomic.Int32
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() { // continuous sweeper
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.SweepLockEntries()
			}
		}
	}()

	var traffic sync.WaitGroup
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				n := i % names
				if err := tx.LockExclusive(fmt.Sprintf("hot/%d", n)); err != nil {
					t.Errorf("worker %d: %v", w, err)
				} else {
					if owners[n].Add(1) != 1 {
						t.Errorf("worker %d: two owners of hot/%d", w, n)
					}
					owners[n].Add(-1)
				}
				tx.Abort()
			}
		}(w)
	}
	traffic.Wait()
	close(stop)
	sweeper.Wait()
}
