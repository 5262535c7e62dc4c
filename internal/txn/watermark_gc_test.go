package txn

import (
	"testing"
	"time"
)

// TestGCHorizonRespectsWatermark pins the horizon writes trim at: the
// oldest registered snapshot, which is never above Published(), and
// neither Published() nor Oracle().Current().
//
// The hazard: the oracle allocates commit timestamps before the
// watermark publishes them, so while commits are in flight
// Oracle().Current() runs ahead of Published(), and a chain may hold a
// version stamped at an unpublished timestamp. A reader beginning then
// snapshots at the watermark, below that stamp, and still needs the
// version before it. The test parks two commits mid-flight (epoch-
// stamped but unpublished), begins a reader, lets the commits publish,
// and writes the chain once more: the reader must keep its version,
// though by then Published() is above it.
func TestGCHorizonRespectsWatermark(t *testing.T) {
	m := NewManager()
	var c Chain[int]
	commit := func(v int) {
		tx := m.Begin()
		if err := tx.LockExclusive("k"); err != nil {
			t.Fatal(err)
		}
		c.Stage(tx, v, func(*Chain[int], uint64) {})
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
	c.Stage(txB, 2, func(*Chain[int], uint64) {})
	txB.OnCommit(func(TS) { close(bStamped) })
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
	if h, pub := m.Horizon(), m.Published(); reader.BeginTS() != pub || h > pub {
		t.Fatalf("reader at %d, horizon %d, watermark %d: want the reader at the watermark and the horizon at or under it",
			reader.BeginTS(), h, pub)
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
	// v2 is published now, so a trim at Published() would cut v1. The
	// write trims at the reader's snapshot and leaves it.
	commit(3)
	if m.Published() <= reader.BeginTS() {
		t.Fatalf("watermark %d did not pass the reader's snapshot %d", m.Published(), reader.BeginTS())
	}
	if v, ok := c.Read(reader.BeginTS(), reader.ID()); !ok || v != 1 {
		t.Fatalf("the trim lost the reader's version: (%d, %v)", v, ok)
	}
}
