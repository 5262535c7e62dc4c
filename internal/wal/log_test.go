package wal

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// appendAndCommit pushes n sequential commit records through the log
// the way the transaction manager does: Append in timestamp order,
// Commit after "publishing".
func appendAndCommit(t *testing.T, l *Log, from, n uint64) {
	t.Helper()
	for ts := from; ts < from+n; ts++ {
		op := NewOp(OpKVPut).String("k").Bytes([]byte{byte(ts)}).Build()
		if err := l.Append(ts, [][]byte{op}); err != nil {
			t.Fatalf("append %d: %v", ts, err)
		}
		if err := l.Commit(ts); err != nil {
			t.Fatalf("commit %d: %v", ts, err)
		}
	}
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendAndCommit(t, l, 1, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	st, err := Replay(fs, path, func(ts uint64, ops [][]byte) error {
		if len(ops) != 1 {
			t.Fatalf("ts %d: %d ops", ts, len(ops))
		}
		got = append(got, ts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 20 || st.LastTS != 20 || st.Truncated {
		t.Fatalf("replay stats = %+v", st)
	}
	for i, ts := range got {
		if ts != uint64(i+1) {
			t.Fatalf("record %d has ts %d", i, ts)
		}
	}
}

func TestLogGroupCommitBatches(t *testing.T) {
	fs := NewMemFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, Options{FS: fs, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent committers over a contiguous timestamp range: appends
	// happen in ts order (as the publish ring guarantees), commits race.
	const n = 64
	for ts := uint64(1); ts <= n; ts++ {
		if err := l.Append(ts, [][]byte{NewOp(OpKVPut).String("x").Bytes(nil).Build()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for ts := uint64(1); ts <= n; ts++ {
		wg.Add(1)
		go func(ts uint64) {
			defer wg.Done()
			if err := l.Commit(ts); err != nil {
				t.Errorf("commit %d: %v", ts, err)
			}
		}(ts)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != n || st.DurableTS != n {
		t.Fatalf("stats = %+v", st)
	}
	if st.Fsyncs > st.Batches || st.Batches > n {
		t.Fatalf("group commit did not batch: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rst, err := Replay(fs, path, func(uint64, [][]byte) error { return nil })
	if err != nil || rst.Records != n {
		t.Fatalf("replay after concurrent commits: %+v, %v", rst, err)
	}
}

func TestLogAlwaysFsyncsPerRecord(t *testing.T) {
	fs := NewMemFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, Options{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAndCommit(t, l, 1, 10)
	if st := l.Stats(); st.Fsyncs < 10 {
		t.Fatalf("always policy issued %d fsyncs for 10 records", st.Fsyncs)
	}
	l.Close()
}

func TestLogAsyncFlushes(t *testing.T) {
	fs := NewMemFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, Options{FS: fs, Policy: SyncAsync, AsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendAndCommit(t, l, 1, 5)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().DurableTS < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := l.Stats(); st.DurableTS < 5 {
		t.Fatalf("async flusher never made ts 5 durable: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogSealsOnFsyncFailure(t *testing.T) {
	fs := NewFailFS(NewMemFS())
	fs.FailSyncsFrom(2)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, Options{FS: fs, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, [][]byte{{OpKVPut}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatalf("first commit should succeed: %v", err)
	}
	if err := l.Append(2, [][]byte{{OpKVPut}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(2); !errors.Is(err, ErrSealed) {
		t.Fatalf("commit after fsync failure = %v, want ErrSealed", err)
	}
	if !l.Sealed() {
		t.Fatal("log not sealed")
	}
	// Sealed log refuses new appends with the typed error.
	if err := l.Append(3, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("append on sealed log = %v", err)
	}
	if st := l.Stats(); !st.Sealed {
		t.Fatalf("stats not sealed: %+v", st)
	}
	l.Close()
}

func TestReplayTruncatesTornTail(t *testing.T) {
	fs := NewMemFS()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := OpenLog(path, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendAndCommit(t, l, 1, 8)
	l.Close()

	// Append unsynced garbage, then crash: the tail is torn.
	f, _ := fs.OpenAppend(path)
	f.Write(AppendFrame(nil, AppendCommit(nil, 9, nil))[:7])
	f.Close()
	fs.Crash(rand.New(rand.NewSource(1)))

	st, err := Replay(fs, path, func(uint64, [][]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records > 8 || !st.Truncated && st.DroppedBytes > 0 {
		t.Fatalf("torn replay stats = %+v", st)
	}
	// After truncation the log must replay cleanly and accept appends.
	st2, err := Replay(fs, path, func(uint64, [][]byte) error { return nil })
	if err != nil || st2.Truncated {
		t.Fatalf("second replay: %+v, %v", st2, err)
	}
	if st2.Records != st.Records {
		t.Fatalf("replay not stable: %d then %d records", st.Records, st2.Records)
	}
	l2, err := OpenLog(path, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	l2.SetDurableFloor(st2.LastTS)
	appendAndCommit(t, l2, st2.LastTS+1, 3)
	l2.Close()
	st3, err := Replay(fs, path, func(uint64, [][]byte) error { return nil })
	if err != nil || st3.Records != st2.Records+3 {
		t.Fatalf("append after truncation: %+v, %v", st3, err)
	}
}

func TestSnapshotInstallAndFallback(t *testing.T) {
	fs := NewMemFS()
	dir := filepath.Join(t.TempDir(), "snaps")
	if _, err := WriteSnapshot(fs, dir, 10, []byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(fs, dir, 25, []byte("state-at-25")); err != nil {
		t.Fatal(err)
	}
	ts, payload, ok, err := LatestSnapshot(fs, dir)
	if err != nil || !ok || ts != 25 || string(payload) != "state-at-25" {
		t.Fatalf("latest = %d %q %v %v", ts, payload, ok, err)
	}
	// Corrupt the newest snapshot: loader falls back to the previous.
	name := filepath.Join(dir, SnapshotName(25))
	data, _ := fs.ReadFile(name)
	data[len(data)-1] ^= 0xff
	f, _ := fs.Create(name)
	f.Write(data)
	f.Close()
	ts, payload, ok, err = LatestSnapshot(fs, dir)
	if err != nil || !ok || ts != 10 || string(payload) != "state-at-10" {
		t.Fatalf("fallback = %d %q %v %v", ts, payload, ok, err)
	}
}

func TestSnapshotRenameFailureKeepsOld(t *testing.T) {
	inner := NewMemFS()
	fs := NewFailFS(inner)
	dir := filepath.Join(t.TempDir(), "snaps")
	if _, err := WriteSnapshot(fs, dir, 5, []byte("good")); err != nil {
		t.Fatal(err)
	}
	fs.FailRename(errors.New("boom"))
	if _, err := WriteSnapshot(fs, dir, 9, []byte("newer")); err == nil {
		t.Fatal("rename failure not reported")
	}
	fs.FailRename(nil)
	ts, payload, ok, err := LatestSnapshot(fs, dir)
	if err != nil || !ok || ts != 5 || string(payload) != "good" {
		t.Fatalf("old snapshot lost: %d %q %v %v", ts, payload, ok, err)
	}
}

func TestFailFSCrashAtByteProducesTornWrite(t *testing.T) {
	inner := NewMemFS()
	fs := NewFailFS(inner)
	fs.CrashAtByte(10)
	f, err := fs.OpenAppend("f")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789abcdef"))
	if n != 10 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash write = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash sync = %v", err)
	}
	data, _ := inner.ReadFile("f")
	if string(data) != "0123456789" {
		t.Fatalf("torn prefix = %q", data)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
}
