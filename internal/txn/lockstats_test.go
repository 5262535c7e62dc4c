package txn

import (
	"errors"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLockStatsCountsWaits pins the wait telemetry: a blocked acquire
// increments the wait count once and accrues blocked wall time.
func TestLockStatsCountsWaits(t *testing.T) {
	m := NewManager()
	key := NewResourceKey("contended")
	tx1 := m.Begin()
	if err := tx1.LockExclusiveKey(key); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2 := m.Begin()
		err := tx2.LockExclusiveKey(key)
		tx2.Abort()
		done <- err
	}()
	waitFor(t, "tx2 to block", func() bool { return m.LockStats().Waits == 1 })
	time.Sleep(5 * time.Millisecond) // accrue measurable blocked time
	tx1.Abort()                      // release; tx2 gets the lock
	if err := <-done; err != nil {
		t.Fatalf("blocked acquire failed: %v", err)
	}
	s := m.LockStats()
	if s.Acquires < 2 {
		t.Errorf("acquires = %d, want >= 2", s.Acquires)
	}
	if s.Waits != 1 {
		t.Errorf("waits = %d, want 1", s.Waits)
	}
	if s.WaitNS <= 0 {
		t.Errorf("wait time = %v, want > 0", s.WaitNS)
	}
	if got := s.WaitRate(); got != float64(s.Waits)/float64(s.Acquires) {
		t.Errorf("WaitRate() = %v", got)
	}
}

// TestLockStatsDetectorCycle pins the detector telemetry: an AB-BA
// deadlock records exactly one victim.
func TestLockStatsDetectorCycle(t *testing.T) {
	m := NewManager()
	a, b := NewResourceKey("res-a"), NewResourceKey("res-b")
	tx1, tx2 := m.Begin(), m.Begin()
	if err := tx1.LockExclusiveKey(a); err != nil {
		t.Fatal(err)
	}
	if err := tx2.LockExclusiveKey(b); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		err := tx1.LockExclusiveKey(b)
		if err == nil {
			tx1.Abort()
		}
		errs <- err
	}()
	go func() {
		err := tx2.LockExclusiveKey(a)
		if err == nil {
			tx2.Abort()
		}
		errs <- err
	}()
	e1, e2 := <-errs, <-errs
	deadlocks := 0
	for _, err := range []error{e1, e2} {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 {
		t.Fatalf("deadlock victims = %d, want exactly 1", deadlocks)
	}
	s := m.LockStats()
	if s.Detector.Victims != 1 {
		t.Errorf("detector victims = %d, want 1", s.Detector.Victims)
	}
	if s.Waits == 0 {
		t.Error("no waits recorded for a deadlock whose first waiter blocked")
	}
}

// TestLockStatsDelta verifies run-scoped telemetry: the delta of two
// snapshots contains only the work between them.
func TestLockStatsDelta(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if err := tx.LockExclusive("warmup"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	before := m.LockStats()

	tx2 := m.Begin()
	if err := tx2.LockExclusive("fresh-1"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.LockExclusive("fresh-2"); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	d := m.LockStats().Delta(before)
	if d.Acquires != 2 {
		t.Errorf("delta acquires = %d, want 2", d.Acquires)
	}
	if d.Waits != 0 || d.WaitNS != 0 {
		t.Errorf("uncontended delta reports waits: %+v", d)
	}
	if d.Detector.Victims != 0 {
		t.Errorf("uncontended delta reports victims: %+v", d)
	}
}

// TestLockStatsMerge verifies cross-manager aggregation (the
// federation's five lock tables fold into one snapshot).
func TestLockStatsMerge(t *testing.T) {
	m1, m2 := NewManager(), NewManager()
	for _, m := range []*Manager{m1, m2} {
		tx := m.Begin()
		if err := tx.LockExclusive("x"); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	sum := m1.LockStats().Merge(m2.LockStats())
	if sum.Acquires != 2 {
		t.Errorf("merged acquires = %d, want 2", sum.Acquires)
	}
	if sum.Waits != 0 || sum.WaitNS != 0 || sum.Detector.Victims != 0 {
		t.Errorf("uncontended merge reports waits or victims: %+v", sum)
	}
}
