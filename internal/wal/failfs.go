package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the root of every FailFS-injected fault.
var ErrInjected = errors.New("wal: injected fault")

// FailFS wraps an FS with deterministic failpoints on write, fsync and
// rename, so tests can kill the log at an arbitrary byte offset or
// mid-fsync and then exercise recovery. After a failpoint fires in
// crash mode, every subsequent write/sync/rename fails too — the
// process is "dead" from the log's point of view while the backing FS
// retains exactly the bytes that made it down before the fault.
type FailFS struct {
	inner FS

	mu sync.Mutex
	// crashAtByte: total bytes across all writes after which writes die.
	// The write that crosses the boundary lands a partial prefix first,
	// producing a torn record. -1 = disabled.
	crashAtByte int64
	written     int64
	// crashAtSync: the Nth Sync call (1-based) fails and triggers crash
	// mode; data written before it stays unsynced. 0 = disabled.
	crashAtSync int
	syncCalls   int
	// syncErrAfter: the Nth Sync call onward fails persistently WITHOUT
	// crash mode — models a disk that stops acknowledging fsync while
	// the process lives (the seal-the-log scenario). 0 = disabled.
	syncErrAfter int
	renameErr    error
	syncDelay    time.Duration
	crashed      bool
}

// NewFailFS wraps inner with no failpoints armed.
func NewFailFS(inner FS) *FailFS { return &FailFS{inner: inner, crashAtByte: -1} }

// CrashAtByte arms the byte-offset kill point: once n total bytes have
// been written through this FS, the in-flight write is cut short and
// every later operation fails.
func (f *FailFS) CrashAtByte(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAtByte = n
}

// CrashAtSync arms the mid-fsync kill point: the nth Sync call (1-based)
// fails and enters crash mode.
func (f *FailFS) CrashAtSync(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAtSync = n
}

// FailSyncsFrom makes the nth Sync call (1-based) and all later ones
// fail without crashing: the process survives, fsync does not.
func (f *FailFS) FailSyncsFrom(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErrAfter = n
}

// SetSyncLatency injects d of latency before every fsync — a hermetic
// model of a storage device's durability-barrier cost, which is what
// separates the fsync policies in the durability experiments.
func (f *FailFS) SetSyncLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncDelay = d
}

// Crashed reports whether a kill point has fired.
func (f *FailFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

type failFile struct {
	inner File
	ffs   *FailFS
}

func (h *failFile) Write(p []byte) (int, error) {
	h.ffs.mu.Lock()
	if h.ffs.crashed {
		h.ffs.mu.Unlock()
		return 0, fmt.Errorf("%w: crashed", ErrInjected)
	}
	partial := -1
	if h.ffs.crashAtByte >= 0 && h.ffs.written+int64(len(p)) > h.ffs.crashAtByte {
		partial = int(h.ffs.crashAtByte - h.ffs.written)
		h.ffs.crashed = true
	}
	if partial < 0 {
		h.ffs.written += int64(len(p))
	} else {
		h.ffs.written += int64(partial)
	}
	h.ffs.mu.Unlock()
	if partial >= 0 {
		if partial > 0 {
			h.inner.Write(p[:partial]) // the torn prefix that "made it to disk"
		}
		return partial, fmt.Errorf("%w: crash at byte offset", ErrInjected)
	}
	return h.inner.Write(p)
}

func (h *failFile) Sync() error {
	h.ffs.mu.Lock()
	if d := h.ffs.syncDelay; d > 0 {
		h.ffs.mu.Unlock()
		time.Sleep(d)
		h.ffs.mu.Lock()
	}
	if h.ffs.crashed {
		h.ffs.mu.Unlock()
		return fmt.Errorf("%w: crashed", ErrInjected)
	}
	h.ffs.syncCalls++
	if h.ffs.crashAtSync > 0 && h.ffs.syncCalls >= h.ffs.crashAtSync {
		h.ffs.crashed = true
		h.ffs.mu.Unlock()
		return fmt.Errorf("%w: crash mid-fsync", ErrInjected)
	}
	if h.ffs.syncErrAfter > 0 && h.ffs.syncCalls >= h.ffs.syncErrAfter {
		h.ffs.mu.Unlock()
		return fmt.Errorf("%w: fsync refused", ErrInjected)
	}
	h.ffs.mu.Unlock()
	return h.inner.Sync()
}

func (h *failFile) Close() error { return h.inner.Close() }

// OpenAppend implements FS.
func (f *FailFS) OpenAppend(name string) (File, error) {
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &failFile{inner: inner, ffs: f}, nil
}

// Create implements FS.
func (f *FailFS) Create(name string) (File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &failFile{inner: inner, ffs: f}, nil
}

// ReadFile implements FS.
func (f *FailFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Truncate implements FS.
func (f *FailFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: crashed", ErrInjected)
	}
	return f.inner.Truncate(name, size)
}

// Rename implements FS.
func (f *FailFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	crashed, renameErr := f.crashed, f.renameErr
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: crashed", ErrInjected)
	}
	if renameErr != nil {
		return renameErr
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FailFS) Remove(name string) error { return f.inner.Remove(name) }

// List implements FS.
func (f *FailFS) List(dir string) ([]string, error) { return f.inner.List(dir) }

// MkdirAll implements FS.
func (f *FailFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }
