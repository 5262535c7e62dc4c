package replica

import (
	"testing"
	"time"

	"udbench/internal/mmvalue"
)

func fixedLag(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

func TestPrimaryAlwaysFresh(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	c := NewCluster(2, fixedLag(time.Second), vc.Now)
	c.Write("k", mmvalue.Int(1))
	c.Write("k", mmvalue.Int(2))
	got := c.ReadPrimary("k")
	if !got.Found || !mmvalue.Equal(got.Value, mmvalue.Int(2)) || got.Seq != 2 {
		t.Fatalf("primary read = %+v", got)
	}
	if missing := c.ReadPrimary("zz"); missing.Found {
		t.Error("phantom key on primary")
	}
}

func TestReplicaLagVisibility(t *testing.T) {
	vc := NewVirtualClock(time.Unix(100, 0))
	c := NewCluster(1, fixedLag(50*time.Millisecond), vc.Now)
	c.Write("k", mmvalue.Int(1))
	// Immediately: replica has not applied.
	if got := c.ReadReplica(0, "k"); got.Found {
		t.Error("replica should lag behind")
	}
	// After 49ms: still stale.
	vc.Advance(49 * time.Millisecond)
	if got := c.ReadReplica(0, "k"); got.Found {
		t.Error("replica applied too early")
	}
	// After 50ms: applied.
	vc.Advance(1 * time.Millisecond)
	got := c.ReadReplica(0, "k")
	if !got.Found || !mmvalue.Equal(got.Value, mmvalue.Int(1)) {
		t.Fatalf("replica read after lag = %+v", got)
	}
	if got.Seq != 1 {
		t.Error("applied bookkeeping wrong")
	}
}

func TestPerReplicaLag(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	lags := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	c := NewCluster(2, func(i int) time.Duration { return lags[i] }, vc.Now)
	c.Write("k", mmvalue.Int(7))
	vc.Advance(20 * time.Millisecond)
	if got := c.ReadReplica(0, "k"); !got.Found {
		t.Error("fast replica should have applied")
	}
	if got := c.ReadReplica(1, "k"); got.Found {
		t.Error("slow replica should still lag")
	}
	if c.ConvergenceTime() != 100*time.Millisecond {
		t.Errorf("ConvergenceTime = %v", c.ConvergenceTime())
	}
}

func TestApplyOrderIsLogOrder(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	c := NewCluster(1, fixedLag(5*time.Millisecond), vc.Now)
	for i := 1; i <= 10; i++ {
		c.Write("k", mmvalue.Int(int64(i)))
		vc.Advance(time.Millisecond)
	}
	// At +5ms past the first write, some prefix applied; value must be
	// the newest applied version, never an out-of-order one.
	got := c.ReadReplica(0, "k")
	if !got.Found {
		t.Fatal("no version applied")
	}
	if got.Seq == 0 || got.Seq > 10 {
		t.Fatalf("seq out of range: %d", got.Seq)
	}
	if !mmvalue.Equal(got.Value, mmvalue.Int(int64(got.Seq))) {
		t.Errorf("value %s does not match seq %d", got.Value, got.Seq)
	}
	vc.Advance(time.Hour)
	got = c.ReadReplica(0, "k")
	if got.Seq != 10 || !mmvalue.Equal(got.Value, mmvalue.Int(10)) {
		t.Errorf("after convergence = %+v", got)
	}
}

func TestZeroLagIsSynchronous(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	c := NewCluster(1, nil, vc.Now) // nil lag = 0
	c.Write("k", mmvalue.Int(1))
	if got := c.ReadReplica(0, "k"); !got.Found {
		t.Error("zero-lag replica must be synchronous")
	}
	if c.ConvergenceTime() != 0 {
		t.Error("zero-lag convergence should be 0")
	}
}

func TestDefaultClockWorks(t *testing.T) {
	c := NewCluster(1, fixedLag(0), nil)
	c.Write("k", mmvalue.Int(1))
	if got := c.ReadReplica(0, "k"); !got.Found {
		t.Error("real-clock zero-lag read failed")
	}
}

func TestWriteValueIsolatedFromCaller(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	c := NewCluster(1, fixedLag(0), vc.Now)
	v := mmvalue.ObjectOf("a", 1)
	c.Write("k", v)
	v.MustObject().Set("a", mmvalue.Int(999))
	got := c.ReadPrimary("k")
	if x, _ := got.Value.MustObject().Get("a"); !mmvalue.Equal(x, mmvalue.Int(1)) {
		t.Error("cluster shares caller's value")
	}
}
