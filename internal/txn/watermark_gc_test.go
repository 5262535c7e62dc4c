package txn

import (
	"testing"
	"time"
)

// TestGCHorizonRespectsWatermark pins the safe GC horizon for
// concurrent compaction: Published()+1, never Oracle().Current()+1.
//
// The hazard: the oracle allocates commit timestamps before the
// watermark publishes them, so while commits are in flight
// Oracle().Current() runs ahead of Published(). A version chain may
// then hold a version stamped at an unpublished timestamp; under a
// Current()-based horizon that version "shadows" its predecessor and
// GC drops it — but every snapshot reader begins at the published
// watermark, below the stamped timestamp, and still needs the
// predecessor. The test parks two commits mid-flight (epoch-stamped
// but unpublished), compacts concurrently, and verifies the
// watermark-based horizon preserves the reader's version while the
// oracle-based horizon demonstrably would not.
func TestGCHorizonRespectsWatermark(t *testing.T) {
	m := NewManager()
	var c Chain[int]
	commit := func(v int) {
		tx := m.Begin()
		if err := tx.LockExclusive("k"); err != nil {
			t.Fatal(err)
		}
		c.Write(tx.ID(), v)
		tx.OnCommit(func(ts TS) { c.CommitStamp(tx.ID(), ts) })
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(1) // v1 — the version the watermark reader depends on

	// Tx A parks inside its commit hook: its timestamp is allocated
	// but never published while parked, pinning the watermark.
	aParked := make(chan struct{})
	unparkA := make(chan struct{})
	txA := m.Begin()
	txA.OnCommit(func(TS) {
		close(aParked)
		<-unparkA
	})
	aDone := make(chan error, 1)
	go func() {
		_, err := txA.Commit()
		aDone <- err
	}()
	<-aParked

	// Tx B commits behind A: it stamps v2 onto the chain at a
	// timestamp two ticks above the watermark, then blocks in Commit
	// waiting for A to publish first. This is the in-flight epoch
	// commit the horizon must ignore.
	bStamped := make(chan struct{})
	txB := m.Begin()
	if err := txB.LockExclusive("k"); err != nil {
		t.Fatal(err)
	}
	c.Write(txB.ID(), 2)
	txB.OnCommit(func(ts TS) {
		c.CommitStamp(txB.ID(), ts)
		close(bStamped)
	})
	bDone := make(chan error, 1)
	go func() {
		_, err := txB.Commit()
		bDone <- err
	}()
	<-bStamped

	if cur, pub := m.Oracle().Current(), m.Published(); cur < pub+2 {
		t.Fatalf("oracle %d not ahead of watermark %d: commits not in flight", cur, pub)
	}
	// A reader beginning now snapshots at the published watermark and
	// must still see v1 — v2's timestamp is stamped but unpublished.
	reader := m.Begin()
	defer reader.Abort()

	// The corrected horizon: compact concurrently with the in-flight
	// commits. v1 must survive.
	c.GC(m.Published() + 1)
	if v, ok := c.Read(reader.BeginTS(), reader.ID()); !ok || v != 1 {
		t.Fatalf("watermark-horizon GC lost the reader's version: (%d, %v)", v, ok)
	}
	// The old Oracle().Current()+1 horizon drops v1 in this exact
	// state — run it to document that the hazard is real, not
	// hypothetical (this is why the horizon choice matters).
	c.GC(m.Oracle().Current() + 1)
	if _, ok := c.Read(reader.BeginTS(), reader.ID()); ok {
		t.Fatal("oracle-horizon GC kept the version — the hazard this test pins has vanished; " +
			"re-examine the horizon contract before touching this test")
	}

	close(unparkA)
	for _, done := range []chan error{aDone, bDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked commit never completed")
		}
	}
}
