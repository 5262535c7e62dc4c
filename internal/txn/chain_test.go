package txn

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestChainEmptyRead(t *testing.T) {
	var c Chain[string]
	if _, ok := c.Read(100, 0); ok {
		t.Error("empty chain should read nothing")
	}
	if _, ok := c.ReadLatest(); ok {
		t.Error("empty chain has no latest")
	}
	if !c.Empty() || c.Len() != 0 {
		t.Error("empty chain invariants")
	}
	if c.LatestCommitTS() != 0 {
		t.Error("empty chain LatestCommitTS should be 0")
	}
}

func TestChainSnapshotVisibility(t *testing.T) {
	var c Chain[string]
	// Install three committed versions at ts 10, 20, 30.
	for i, ts := range []TS{10, 20, 30} {
		c.Write(uint64(i+1), []string{"v10", "v20", "v30"}[i], false)
		c.CommitStamp(uint64(i+1), ts)
	}
	cases := []struct {
		snap TS
		want string
		ok   bool
	}{
		{5, "", false},
		{10, "v10", true},
		{15, "v10", true},
		{20, "v20", true},
		{29, "v20", true},
		{30, "v30", true},
		{99, "v30", true},
	}
	for _, tc := range cases {
		got, ok := c.Read(tc.snap, 0)
		if ok != tc.ok || got != tc.want {
			t.Errorf("Read(snap=%d) = (%q, %v), want (%q, %v)", tc.snap, got, ok, tc.want, tc.ok)
		}
	}
	if c.LatestCommitTS() != 30 {
		t.Errorf("LatestCommitTS = %d", c.LatestCommitTS())
	}
}

func TestChainUncommittedInvisibleToOthers(t *testing.T) {
	var c Chain[string]
	c.Write(1, "committed", false)
	c.CommitStamp(1, 10)
	c.Write(7, "pending", false)
	// Other readers see the committed version.
	if v, ok := c.Read(100, 0); !ok || v != "committed" {
		t.Errorf("outside reader got (%q, %v)", v, ok)
	}
	if v, ok := c.Read(100, 3); !ok || v != "committed" {
		t.Errorf("other tx got (%q, %v)", v, ok)
	}
	// Owner sees its own write.
	if v, ok := c.Read(100, 7); !ok || v != "pending" {
		t.Errorf("owner got (%q, %v)", v, ok)
	}
	// Even at an old snapshot the owner sees its own write.
	if v, ok := c.Read(1, 7); !ok || v != "pending" {
		t.Errorf("owner at old snapshot got (%q, %v)", v, ok)
	}
}

func TestChainDeleteVisibility(t *testing.T) {
	var c Chain[string]
	c.Write(1, "alive", false)
	c.CommitStamp(1, 10)
	c.Write(2, "", true)
	c.CommitStamp(2, 20)
	if v, ok := c.Read(15, 0); !ok || v != "alive" {
		t.Error("pre-delete snapshot should see the record")
	}
	if _, ok := c.Read(25, 0); ok {
		t.Error("post-delete snapshot should see deletion")
	}
	if _, ok := c.ReadLatest(); ok {
		t.Error("latest is deleted")
	}
	if c.LatestCommitTS() != 20 {
		t.Error("deleted versions still carry commit timestamps")
	}
}

func TestChainWriteReplacePending(t *testing.T) {
	var c Chain[int]
	c.Write(5, 1, false)
	c.Write(5, 2, false)
	c.Write(5, 3, false)
	if c.Len() != 1 {
		t.Fatalf("same-tx rewrites should collapse, len = %d", c.Len())
	}
	if v, _ := c.Read(0, 5); v != 3 {
		t.Errorf("owner reads %d, want 3", v)
	}
	c.Rollback(5)
	if !c.Empty() {
		t.Error("rollback of only version should empty the chain")
	}
}

func TestChainRollbackKeepsCommitted(t *testing.T) {
	var c Chain[int]
	c.Write(1, 10, false)
	c.CommitStamp(1, 5)
	c.Write(2, 20, false)
	c.Rollback(2)
	if v, ok := c.ReadLatest(); !ok || v != 10 {
		t.Errorf("latest after rollback = (%d, %v)", v, ok)
	}
	// Rollback by a tx with no pending version is a no-op.
	c.Rollback(99)
	if c.Len() != 1 {
		t.Error("spurious rollback removed data")
	}
}

func TestChainCommitStampWrongOwnerNoop(t *testing.T) {
	var c Chain[int]
	c.Write(2, 20, false)
	c.CommitStamp(3, 50) // wrong tx
	if ts := c.LatestCommitTS(); ts != 0 {
		t.Errorf("stamp by non-owner should be no-op, ts = %d", ts)
	}
	c.CommitStamp(2, 50)
	if ts := c.LatestCommitTS(); ts != 50 {
		t.Errorf("ts = %d, want 50", ts)
	}
}

func TestChainGC(t *testing.T) {
	var c Chain[int]
	for i := 1; i <= 5; i++ {
		c.Write(uint64(i), i*100, false)
		c.CommitStamp(uint64(i), TS(i*10))
	}
	// Horizon 35: versions at 10,20 shadowed by 30 (<=35) are droppable.
	dropped := c.GC(35)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	// All snapshots >= horizon still read correctly.
	if v, ok := c.Read(35, 0); !ok || v != 300 {
		t.Errorf("Read(35) = (%d, %v), want 300", v, ok)
	}
	if v, ok := c.Read(50, 0); !ok || v != 500 {
		t.Errorf("Read(50) = (%d, %v)", v, ok)
	}
	// GC never drops the newest committed version.
	if c.GC(1000) != 2 {
		t.Error("GC(1000) should drop all but the newest committed")
	}
	if v, ok := c.ReadLatest(); !ok || v != 500 {
		t.Error("newest version must survive GC")
	}
}

func TestChainConcurrentReadersWithWriter(t *testing.T) {
	var c Chain[int]
	c.Write(1, 0, false)
	c.CommitStamp(1, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if v, ok := c.Read(1, 0); !ok || v != 0 {
						t.Errorf("snapshot 1 should always read 0, got (%d, %v)", v, ok)
						return
					}
				}
			}
		}()
	}
	for i := 2; i <= 200; i++ {
		c.Write(uint64(i), i, false)
		c.CommitStamp(uint64(i), TS(i))
	}
	close(stop)
	wg.Wait()
	if v, _ := c.ReadLatest(); v != 200 {
		t.Errorf("latest = %d", v)
	}
}

// Property: for a randomly committed history, Read(snap) returns the
// version with the greatest commitTS <= snap (reference model check).
func TestPropChainMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c Chain[int]
		type committed struct {
			ts  TS
			val int
			del bool
		}
		var hist []committed
		ts := TS(0)
		for i := 0; i < 30; i++ {
			ts += TS(r.Intn(3) + 1)
			val := r.Intn(1000)
			del := r.Intn(10) == 0
			id := uint64(i + 1)
			c.Write(id, val, del)
			c.CommitStamp(id, ts)
			hist = append(hist, committed{ts, val, del})
		}
		for probe := TS(0); probe <= ts+2; probe++ {
			var want *committed
			for i := range hist {
				if hist[i].ts <= probe {
					want = &hist[i]
				}
			}
			got, ok := c.Read(probe, 0)
			if want == nil || want.del {
				if ok {
					return false
				}
				continue
			}
			if !ok || got != want.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkChainRead is a snapshot read of a chain with four committed
// versions from parallel readers, the shape of every store point get.
func BenchmarkChainRead(b *testing.B) {
	var c Chain[int]
	for i := 1; i <= 4; i++ {
		c.Write(uint64(i), i, false)
		c.CommitStamp(uint64(i), TS(i*10))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if v, ok := c.Read(100, 0); !ok || v != 4 {
				b.Errorf("Read = (%d, %v)", v, ok)
				return
			}
		}
	})
}
