package wal

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SyncPolicy selects when commit records reach stable storage.
type SyncPolicy int

const (
	// SyncGroup fsyncs once per flush batch. Batches follow the
	// transaction manager's published watermark: the first committer to
	// arrive after an advance becomes the leader and flushes every
	// record at or below the highest published timestamp requested so
	// far, so concurrent commits amortize one fsync.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs after every commit record. Same batching and
	// ordering as SyncGroup, but each record gets its own barrier — the
	// classic safe-and-slow configuration the f6 experiment compares
	// against.
	SyncAlways
	// SyncAsync acknowledges commits as soon as the record is buffered;
	// a background flusher writes and fsyncs on a short interval. A
	// crash loses the un-flushed window — fastest, weakest.
	SyncAsync
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncAsync:
		return "async"
	default:
		return "group"
	}
}

// ParseSyncPolicy parses "always", "group" or "async".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "async":
		return SyncAsync, nil
	}
	return SyncGroup, fmt.Errorf("wal: unknown sync policy %q (want always|group|async)", s)
}

// Options tunes a Log.
type Options struct {
	// FS is the backing filesystem (default OSFS).
	FS FS
	// Policy is the fsync policy (default SyncGroup).
	Policy SyncPolicy
	// AsyncInterval is the SyncAsync background flush cadence
	// (default 2ms).
	AsyncInterval time.Duration
}

// Stats is the log's durability telemetry, embedded in the workload
// report's durability{...} JSON block. Counter fields are cumulative;
// Delta scopes them to a run.
type Stats struct {
	// Policy is the active fsync policy.
	Policy string `json:"policy"`
	// Appends counts commit records handed to the log.
	Appends uint64 `json:"appends"`
	// OpsLogged counts store ops across those records.
	OpsLogged uint64 `json:"ops_logged"`
	// Batches counts flush batches written to the file.
	Batches uint64 `json:"batches"`
	// Fsyncs counts durability barriers issued.
	Fsyncs uint64 `json:"fsyncs"`
	// Bytes counts bytes appended to the log file.
	Bytes uint64 `json:"bytes"`
	// DurableTS is the highest commit timestamp known durable.
	DurableTS uint64 `json:"durable_ts"`
	// Sealed reports whether the log refused further writes after a
	// write/fsync failure.
	Sealed bool `json:"sealed"`
}

// Delta returns the counters accrued since base; policy, watermark and
// seal state stay absolute.
func (s Stats) Delta(base Stats) Stats {
	return Stats{
		Policy:    s.Policy,
		Appends:   s.Appends - base.Appends,
		OpsLogged: s.OpsLogged - base.OpsLogged,
		Batches:   s.Batches - base.Batches,
		Fsyncs:    s.Fsyncs - base.Fsyncs,
		Bytes:     s.Bytes - base.Bytes,
		DurableTS: s.DurableTS,
		Sealed:    s.Sealed,
	}
}

type pendingRec struct {
	ts    uint64
	frame []byte
}

// Log is a group-commit write-ahead log. It implements the transaction
// manager's CommitLog hook: Append buffers the encoded commit record
// before the commit's timestamp publishes, Commit (called after the
// publish) makes it durable per the policy.
//
// Ordering invariant: a record is written to the file only when every
// smaller timestamp is already in the file. The manager guarantees
// that Commit(ts) is called only after the watermark published ts —
// at that point every record <= ts has been appended — so the leader
// can safely flush everything pending at or below the highest
// requested timestamp, and the file is always a timestamp-sorted,
// gap-consistent prefix of commit history. Torn-tail truncation on
// replay therefore loses only a suffix, never a middle record.
//
// Failure model: the first write or fsync error seals the log — the
// tail state of the file is unknown, so appending more would corrupt
// it. A sealed log fails every Append/Commit with ErrSealed while the
// in-memory engine keeps serving reads (graceful degradation, not
// silent loss).
type Log struct {
	fs     FS
	path   string
	policy SyncPolicy

	mu      sync.Mutex
	cond    *sync.Cond
	f       File
	pending []pendingRec // sorted by ts
	maxReq  uint64       // highest ts whose Commit has been requested
	durable uint64
	flushin bool
	sealErr error
	closed  bool
	stats   Stats

	asyncStop chan struct{}
	asyncDone chan struct{}
}

// OpenLog opens (creating if missing) the log file at path for
// appending. The caller replays the existing contents first — see
// Replay — so OpenLog itself never reads.
func OpenLog(path string, opts Options) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.AsyncInterval <= 0 {
		opts.AsyncInterval = 2 * time.Millisecond
	}
	f, err := opts.FS.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{fs: opts.FS, path: path, policy: opts.Policy, f: f}
	l.cond = sync.NewCond(&l.mu)
	l.stats.Policy = opts.Policy.String()
	if opts.Policy == SyncAsync {
		l.asyncStop = make(chan struct{})
		l.asyncDone = make(chan struct{})
		go l.asyncFlusher(opts.AsyncInterval)
	}
	return l, nil
}

// SetDurableFloor records that everything at or below ts was already
// durable when the log was opened (the replayed prefix).
func (l *Log) SetDurableFloor(ts uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts > l.durable {
		l.durable = ts
	}
	if ts > l.maxReq {
		l.maxReq = ts
	}
	l.stats.DurableTS = l.durable
}

// Append buffers the commit record for ts. The transaction manager
// calls it before storing ts in the publish ring, so "ts published"
// implies "record <= ts buffered". A sealed or closed log refuses with
// a typed error before the caller stamps any versions.
func (l *Log) Append(ts uint64, ops [][]byte) error {
	payload := AppendCommit(nil, ts, ops)
	frame := AppendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealErr != nil {
		return l.sealErr
	}
	if l.closed {
		return ErrClosed
	}
	// Insert sorted; commits arrive in near-timestamp order, so this is
	// almost always a plain append.
	i := len(l.pending)
	for i > 0 && l.pending[i-1].ts > ts {
		i--
	}
	l.pending = append(l.pending, pendingRec{})
	copy(l.pending[i+1:], l.pending[i:])
	l.pending[i] = pendingRec{ts: ts, frame: frame}
	l.stats.Appends++
	l.stats.OpsLogged += uint64(len(ops))
	return nil
}

// Commit makes the record at ts durable per the policy. The manager
// calls it after the watermark published ts. Under SyncGroup/SyncAlways
// the caller either waits for a leader already flushing, or becomes
// the leader and flushes every pending record at or below the highest
// requested timestamp. Under SyncAsync it returns immediately.
func (l *Log) Commit(ts uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts > l.maxReq {
		l.maxReq = ts
	}
	if l.policy == SyncAsync {
		return l.sealErr
	}
	// Termination: a pass returns, leads, or waits while a leader
	// flushes; every flush ends (given that the file's Write and Sync
	// return) with a broadcast. ts is in maxReq before the first wait,
	// so a flush that starts after it covers ts: at most the flush in
	// progress and one more can pass before durable reaches ts or this
	// caller leads.
	for {
		if l.durable >= ts {
			return nil
		}
		if l.sealErr != nil {
			return l.sealErr
		}
		if l.closed {
			return ErrClosed
		}
		if !l.flushin {
			break
		}
		l.cond.Wait()
	}
	l.flushLocked()
	if l.sealErr != nil && l.durable < ts {
		return l.sealErr
	}
	return nil
}

// flushLocked runs one leader flush: it takes every pending record at
// or below maxReq (all of which are publish-complete), writes them in
// timestamp order and issues the policy's barriers. Called with l.mu
// held; the mutex is released around the I/O.
func (l *Log) flushLocked() {
	target := l.maxReq
	n := sort.Search(len(l.pending), func(i int) bool { return l.pending[i].ts > target })
	if n == 0 {
		return
	}
	batch := l.pending[:n:n]
	l.pending = append([]pendingRec(nil), l.pending[n:]...)
	l.flushin = true
	l.mu.Unlock()

	var err error
	var bytes, fsyncs uint64
	perRecord := l.policy == SyncAlways
	for _, rec := range batch {
		var w int
		w, err = l.f.Write(rec.frame)
		bytes += uint64(w)
		if err != nil {
			break
		}
		if perRecord {
			if err = l.f.Sync(); err != nil {
				break
			}
			fsyncs++
		}
	}
	if err == nil && !perRecord {
		if err = l.f.Sync(); err == nil {
			fsyncs++
		}
	}

	l.mu.Lock()
	l.flushin = false
	l.stats.Batches++
	l.stats.Bytes += bytes
	l.stats.Fsyncs += fsyncs
	if err != nil {
		// The file tail is in an unknown state; appending more would
		// interleave good records after garbage. Seal.
		l.sealErr = fmt.Errorf("%w: %v", ErrSealed, err)
		l.stats.Sealed = true
	} else {
		l.durable = target
		l.stats.DurableTS = target
	}
	l.cond.Broadcast()
}

// asyncFlusher is the SyncAsync background loop. Termination: Close
// closes asyncStop and waits for the loop, which returns at the next
// select; a tick's flush is one bounded leader flush.
func (l *Log) asyncFlusher(interval time.Duration) {
	defer close(l.asyncDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.asyncStop:
			return
		case <-tick.C:
			l.mu.Lock()
			if !l.flushin && l.sealErr == nil && !l.closed {
				l.flushLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Sync forces everything requested so far to disk (no-op when sealed).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushin {
		l.cond.Wait()
	}
	if l.sealErr != nil {
		return l.sealErr
	}
	if l.closed {
		return ErrClosed
	}
	l.flushLocked()
	return l.sealErr
}

// Close flushes outstanding requested records and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.flushin {
		l.cond.Wait()
	}
	if l.sealErr == nil {
		l.flushLocked()
	}
	l.closed = true
	err := l.sealErr
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.asyncStop != nil {
		close(l.asyncStop)
		<-l.asyncDone
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Sealed reports whether the log has refused further writes.
func (l *Log) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealErr != nil
}

// Stats returns a snapshot of the log's telemetry.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ReplayStats describes what Replay found.
type ReplayStats struct {
	// Records is the number of valid commit records decoded.
	Records int
	// LastTS is the timestamp of the last valid record (0 when empty).
	LastTS uint64
	// Bytes is the size of the valid prefix.
	Bytes int64
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
	// DroppedBytes is how much tail was discarded.
	DroppedBytes int64
}

// Replay decodes the log at path in order, calling fn for each commit
// record. A torn or corrupt tail — the normal shape after a crash — is
// truncated in place so the log reopens at a clean record boundary;
// only a suffix can ever be dropped because records are written in
// timestamp order. A missing file is an empty log. Errors from fn
// abort the replay.
func Replay(fsys FS, path string, fn func(ts uint64, ops [][]byte) error) (ReplayStats, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	var st ReplayStats
	data, err := fsys.ReadFile(path)
	if err != nil {
		return st, nil // missing log = empty log
	}
	off := 0
	for off < len(data) {
		payload, n, err := DecodeFrame(data[off:])
		if err != nil {
			st.Truncated = true
			break
		}
		ts, ops, err := DecodeCommit(payload)
		if err != nil || ts <= st.LastTS {
			// CRC-valid but undecodable or out-of-order: treat like a torn
			// tail — everything from here on is untrustworthy.
			st.Truncated = true
			break
		}
		if err := fn(ts, ops); err != nil {
			return st, err
		}
		off += n
		st.Records++
		st.LastTS = ts
	}
	st.Bytes = int64(off)
	st.DroppedBytes = int64(len(data) - off)
	if st.Truncated && st.DroppedBytes > 0 {
		if err := fsys.Truncate(path, st.Bytes); err != nil {
			return st, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	return st, nil
}
