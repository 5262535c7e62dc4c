// Package replica simulates primary/replica replication with
// configurable apply lag — the substrate for the benchmark's
// consistency experiments. The paper calls for consistency metrics
// measured "via experiments with actually deployed systems"; this
// package replaces a deployed replicated system with a controlled lag
// process so the metrics in internal/consistency are reproducible.
//
// The cluster keeps a global ordered write log. Each replica applies
// log entries lazily when read: an entry becomes visible on replica i
// once now >= entry.Wall + lag(i). With a virtual clock the whole
// simulation is deterministic.
package replica

import (
	"sync"
	"time"

	"udbench/internal/mmvalue"
)

// Clock abstracts time for deterministic simulation.
type Clock func() time.Time

// Event is one replicated write.
type Event struct {
	Seq     uint64
	Key     string
	Value   mmvalue.Value
	Deleted bool
	Wall    time.Time // primary commit wall-clock time
}

// Versioned is a read result carrying replication metadata.
type Versioned struct {
	Value mmvalue.Value
	Seq   uint64    // sequence of the version read (0 = key never seen)
	Wall  time.Time // commit time of the version read
	Found bool
}

// Cluster is a primary with N lagging replicas.
type Cluster struct {
	mu    sync.Mutex
	clock Clock
	lag   func(replica int) time.Duration

	log      []Event
	seq      uint64
	primary  map[string]Versioned
	replicas []*state
}

type state struct {
	applied int // index into log of next unapplied event
	data    map[string]Versioned
}

// NewCluster creates a cluster with n replicas. lag(i) returns the
// apply delay of replica i; clock defaults to time.Now when nil.
func NewCluster(n int, lag func(replica int) time.Duration, clock Clock) *Cluster {
	if clock == nil {
		clock = time.Now
	}
	if lag == nil {
		lag = func(int) time.Duration { return 0 }
	}
	c := &Cluster{clock: clock, lag: lag, primary: make(map[string]Versioned)}
	for i := 0; i < n; i++ {
		c.replicas = append(c.replicas, &state{data: make(map[string]Versioned)})
	}
	return c
}

// Write commits a value on the primary and appends it to the
// replication log. It returns the assigned sequence number.
func (c *Cluster) Write(key string, value mmvalue.Value) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ev := Event{Seq: c.seq, Key: key, Value: value.Clone(), Wall: c.clock()}
	c.log = append(c.log, ev)
	c.primary[key] = Versioned{Value: ev.Value, Seq: ev.Seq, Wall: ev.Wall, Found: true}
	return ev.Seq
}

// Delete commits a deletion on the primary.
func (c *Cluster) Delete(key string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ev := Event{Seq: c.seq, Key: key, Deleted: true, Wall: c.clock()}
	c.log = append(c.log, ev)
	c.primary[key] = Versioned{Seq: ev.Seq, Wall: ev.Wall, Found: false}
	return ev.Seq
}

// ReadPrimary reads the key from the primary (always fresh).
func (c *Cluster) ReadPrimary(key string) Versioned {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary[key]
}

// ReadReplica reads the key from replica i after applying every log
// entry whose apply time has passed.
func (c *Cluster) ReadReplica(i int, key string) Versioned {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catchUp(i)
	return c.replicas[i].data[key]
}

// catchUp applies all due events on replica i (callers hold c.mu).
func (c *Cluster) catchUp(i int) {
	now := c.clock()
	lag := c.lag(i)
	st := c.replicas[i]
	for st.applied < len(c.log) {
		ev := c.log[st.applied]
		if now.Before(ev.Wall.Add(lag)) {
			return
		}
		if ev.Deleted {
			st.data[ev.Key] = Versioned{Seq: ev.Seq, Wall: ev.Wall, Found: false}
		} else {
			st.data[ev.Key] = Versioned{Value: ev.Value, Seq: ev.Seq, Wall: ev.Wall, Found: true}
		}
		st.applied++
	}
}

// ConvergenceTime returns the duration after the last write at which
// every replica will have applied the full log (i.e. max lag), given
// current lag configuration.
func (c *Cluster) ConvergenceTime() time.Duration {
	var max time.Duration
	for i := range c.replicas {
		if l := c.lag(i); l > max {
			max = l
		}
	}
	return max
}

// VirtualClock is a manually advanced clock for deterministic tests
// and experiments.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts a virtual clock at the given origin.
func NewVirtualClock(origin time.Time) *VirtualClock {
	return &VirtualClock{now: origin}
}

// Now returns the current virtual time; pass as the Clock.
func (vc *VirtualClock) Now() time.Time {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.now
}

// Advance moves the virtual clock forward.
func (vc *VirtualClock) Advance(d time.Duration) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.now = vc.now.Add(d)
}
