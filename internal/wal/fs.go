package wal

import (
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File is the writable-file surface the log needs. Appends go through
// Write; Sync is the durability barrier.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the filesystem under the log and snapshots so tests can
// substitute an in-memory or fault-injecting implementation. Paths are
// plain strings; implementations treat them as opaque keys joined with
// the OS separator.
type FS interface {
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Create opens name truncated to empty.
	Create(name string) (File, error)
	// ReadFile returns name's full contents ([]byte, fs.ErrNotExist
	// when missing).
	ReadFile(name string) ([]byte, error)
	// Truncate cuts name to size bytes (used to drop a torn log tail).
	Truncate(name string, size int64) error
	// Rename atomically replaces newname with oldname (snapshot install).
	Rename(oldname, newname string) error
	// Remove deletes name; missing files are not an error.
	Remove(name string) error
	// List returns the sorted file names (not paths) inside dir; a
	// missing dir yields an empty list.
	List(dir string) ([]string, error)
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error {
	err := os.Remove(name)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// MemFS is an in-memory FS that models fsync semantics: every file
// tracks how much of its data has been synced, and Crash discards (a
// random amount of) the unsynced tail — exactly what a power cut does
// to a page cache. The crash-matrix tests drive recovery through it.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

type memHandle struct {
	fs     *MemFS
	name   string
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	f := h.fs.files[h.name]
	if f == nil {
		return 0, fs.ErrNotExist
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if f := h.fs.files[h.name]; f != nil {
		f.synced = len(f.data)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, fs.ErrNotExist
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return fs.ErrNotExist
	}
	if size < 0 || size > int64(len(f.data)) {
		return fs.ErrInvalid
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// Rename implements FS. The rename itself is modeled as durable (a
// deliberate simplification: real installs fsync the directory, which
// this package's snapshot writer documents as implied here).
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[oldname]
	if f == nil {
		return fs.ErrNotExist
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			rest := name[len(prefix):]
			if !strings.ContainsRune(rest, filepath.Separator) {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS (directories are implicit).
func (m *MemFS) MkdirAll(string) error { return nil }

// Crash simulates a power cut: for every file, the synced prefix
// survives and a random portion of the unsynced tail persists — so
// logs routinely reopen with a torn final record, the case replay must
// truncate. rng drives the torn length deterministically.
func (m *MemFS) Crash(rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		keep := f.synced
		if tail := len(f.data) - f.synced; tail > 0 {
			keep += rng.Intn(tail + 1)
		}
		f.data = f.data[:keep]
		f.synced = keep
	}
}
