package txn

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"udbench/internal/ordmap"
)

// Records is the one MVCC record layer under the stores: an ordered map
// from record key to version chain that owns everything model-agnostic
// about a record — its interned lock key, the lock-then-recheck
// protocol, the write / undo / commit-stamp ritual, snapshot-vs-latest
// visibility for point reads and ordered scans, advisory secondary
// indexes, a committed-write counter and version garbage collection.
// All five stores are built on it: the relational, document, key-value
// and XML stores are each a Records, the graph two (vertices and
// edges), plus what is specific to their model (schema, filters, XML
// trees, adjacency lists, WAL op encodings).
type Records[T any] struct {
	mgr    *Manager
	prefix string // lock-resource prefix; two Records on one manager must differ
	chains *ordmap.Map[*Chain[T]]

	// version counts committed writes: every commit hook bumps it before
	// stamping, so the counter changes no later than the moment new data
	// becomes visible to readers.
	version atomic.Uint64
	hook    func(*Chain[T], uint64) // committing, bound once

	idxMu   sync.RWMutex
	indexes map[string]*index[T]
}

// skipListSeed drives skip-list level selection only; any constant
// yields a correct structure.
const skipListSeed = 0x5eed

// NewRecords returns an empty record set on mgr whose lock resources
// are named prefix+key.
func NewRecords[T any](mgr *Manager, prefix string) *Records[T] {
	r := &Records[T]{
		mgr:     mgr,
		prefix:  prefix,
		chains:  ordmap.New[*Chain[T]](skipListSeed),
		indexes: make(map[string]*index[T]),
	}
	r.hook = r.committing
	return r
}

// Manager returns the transaction manager the records are attached to.
func (r *Records[T]) Manager() *Manager { return r.mgr }

// Version counts committed writes. It is bumped inside the commit hook,
// immediately before the corresponding version is stamped visible, so a
// snapshot-derived structure (e.g. the executor's join-build cache)
// tagged with a Version observation stays valid as long as the value is
// unchanged: any write that could alter what readers see bumps the
// counter first.
func (r *Records[T]) Version() uint64 { return r.version.Load() }

// Auto is Manager.Auto on the records' manager.
func (r *Records[T]) Auto(tx *Tx, fn func(*Tx) error) error { return r.mgr.Auto(tx, fn) }

// Lock exclusively locks key's record for a write that may create it.
// The chain (with its interned lock key, so the lock path never
// rebuilds the resource string) is inserted on first use and stays in
// the map even if the write later fails or rolls back: it may already
// be shared with a concurrent transaction queued on the record lock, so
// evicting it would orphan that transaction's writes. An empty chain
// reads as "not found" everywhere.
func (r *Records[T]) Lock(tx *Tx, key string) (*Chain[T], error) {
	c, _ := r.chains.GetOrInsert(key, func() *Chain[T] {
		return &Chain[T]{Res: NewResourceKey(r.prefix + key)}
	})
	return c, tx.LockExclusiveKey(c.Res)
}

// LockExisting exclusively locks key's record without creating it. When
// the record does not exist it locks the name anyway — the absence must
// serialize with concurrent writers of that key — and re-checks: the
// record may have been inserted by a transaction the lock waited on.
func (r *Records[T]) LockExisting(tx *Tx, key string) (*Chain[T], bool, error) {
	if c, ok := r.chains.Get(key); ok {
		return c, true, tx.LockExclusiveKey(c.Res)
	}
	if err := tx.LockExclusive(r.prefix + key); err != nil {
		return nil, false, err
	}
	c, ok := r.chains.Get(key)
	return c, ok, nil
}

// LockLive is LockExisting for a read-modify-write: it also returns the
// record's current value under the lock, and live is false when the
// record is missing or deleted.
func (r *Records[T]) LockLive(tx *Tx, key string) (c *Chain[T], cur T, live bool, err error) {
	c, ok, err := r.LockExisting(tx, key)
	if err == nil && ok {
		cur, live = c.Current(tx)
	}
	return c, cur, live, err
}

// Stage writes tx's new version onto c (which tx must have locked
// through Lock, LockExisting or LockLive); at commit the version
// counter is bumped and a live value is entered into every index just
// before the version is stamped visible.
func (r *Records[T]) Stage(tx *Tx, c *Chain[T], value T, deleted bool) {
	c.Stage(tx, value, deleted, r.hook)
}

// committing is the commit-hook half of Stage. It reads the value back
// from the chain (tx's pending version) and the key back from the lock
// resource rather than have every commit closure carry them.
func (r *Records[T]) committing(c *Chain[T], txID uint64) {
	r.version.Add(1)
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	if len(r.indexes) == 0 {
		return
	}
	value, live := c.Read(0, txID)
	if !live {
		return
	}
	key := c.Res.name[len(r.prefix):]
	for _, ix := range r.indexes {
		if vk, ok := ix.keyOf(value); ok {
			ix.add(vk, key, c)
		}
	}
}

// Get returns key's value as visible to tx (latest committed when tx is
// nil). The value is shared with the store.
func (r *Records[T]) Get(tx *Tx, key string) (T, bool) {
	if c, ok := r.chains.Get(key); ok {
		return c.Visible(tx)
	}
	var zero T
	return zero, false
}

// Scan calls fn for every live record with from <= key < to (empty to =
// unbounded) visible to tx, in key order, until fn returns false.
func (r *Records[T]) Scan(tx *Tx, from, to string, fn func(key string, value T) bool) {
	r.chains.Ascend(from, to, func(key string, c *Chain[T]) bool {
		v, ok := c.Visible(tx)
		if !ok {
			return true // tombstoned or not yet visible
		}
		return fn(key, v)
	})
}

// Len returns the number of record slots, including tombstoned records
// not yet compacted: a cheap upper bound on the live count.
func (r *Records[T]) Len() int { return r.chains.Len() }

// Count returns the number of live records at latest-committed state.
// It is O(n); intended for statistics, not hot paths.
func (r *Records[T]) Count() int {
	n := 0
	r.Scan(nil, "", "", func(string, T) bool { n++; return true })
	return n
}

// Compact garbage-collects versions shadowed below horizon and
// physically unlinks records whose latest version is a tombstone older
// than horizon, together with their index entries, which go first so
// that no entry outlives its chain. It returns the number of versions
// dropped and must not run concurrently with transactions that might
// read below horizon.
func (r *Records[T]) Compact(horizon TS) int {
	dropped := 0
	dead := make(map[*Chain[T]]string)
	r.chains.Ascend("", "", func(key string, c *Chain[T]) bool {
		n, gone := c.Collect(horizon)
		dropped += n
		if gone {
			dead[c] = key
		}
		return true
	})
	r.unlink(dead)
	return dropped
}

// Remove unlinks key's record at once, live or not, its index entries
// first. Unlike Compact it keeps no version for older snapshots, so the
// caller must know that no other transaction can read the record, as
// in recovery replay.
func (r *Records[T]) Remove(key string) {
	if c, ok := r.chains.Get(key); ok {
		r.unlink(map[*Chain[T]]string{c: key})
	}
}

// unlink removes the records of chains from the indexes, then the map.
func (r *Records[T]) unlink(chains map[*Chain[T]]string) {
	r.idxMu.RLock()
	for _, ix := range r.indexes {
		ix.drop(chains)
	}
	r.idxMu.RUnlock()
	for _, key := range chains {
		r.chains.Remove(key)
	}
}

// index is an advisory equality index: indexed value -> bucket of
// {record key, version chain} entries sorted by key. Entries are added
// at commit time and only removed by Compact, so a lookup may return
// extra candidates; Lookup hands back the snapshot-visible record and
// the caller re-checks its predicate. This keeps index maintenance
// correct under multi-versioning without versioning the index itself.
// Buckets are copy-on-write under mu, so readers walk them unlocked; an
// entry that sorts last may be appended in place, past the length any
// reader holds, and no published bucket is ever shortened.
type index[T any] struct {
	keyOf   func(T) (string, bool) // indexed value of a record; false = not indexed
	mu      sync.RWMutex
	buckets map[string][]entry[T]
}

// entry is one record listed under an indexed value.
type entry[T any] struct {
	key string
	c   *Chain[T]
}

// find returns where key sits, or would sit, in bucket b.
func find[T any](b []entry[T], key string) (int, bool) {
	return slices.BinarySearchFunc(b, key, func(e entry[T], k string) int { return strings.Compare(e.key, k) })
}

// add lists c under valKey as key unless key is already there. Only a
// new entry takes the write lock.
func (ix *index[T]) add(valKey, key string, c *Chain[T]) {
	ix.mu.RLock()
	_, ok := find(ix.buckets[valKey], key)
	ix.mu.RUnlock()
	if ok {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	b := ix.buckets[valKey]
	i, ok := find(b, key)
	if ok {
		return
	}
	if i < len(b) {
		b = slices.Clip(b) // so that Insert copies to a new array
	}
	ix.buckets[valKey] = slices.Insert(b, i, entry[T]{key, c})
}

// drop removes the entries of dead chains from every bucket in one pass.
func (ix *index[T]) drop(dead map[*Chain[T]]string) {
	isDead := func(e entry[T]) bool { _, ok := dead[e.c]; return ok }
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for vk, b := range ix.buckets {
		if slices.ContainsFunc(b, isDead) {
			ix.buckets[vk] = slices.DeleteFunc(slices.Clone(b), isDead)
		}
		if len(ix.buckets[vk]) == 0 {
			delete(ix.buckets, vk)
		}
	}
}

// CreateIndex adds an advisory index called name over keyOf and
// backfills it from the latest committed records. It reports false if
// an index of that name already exists.
func (r *Records[T]) CreateIndex(name string, keyOf func(T) (string, bool)) bool {
	ix := &index[T]{keyOf: keyOf, buckets: make(map[string][]entry[T])}
	r.idxMu.Lock()
	if _, exists := r.indexes[name]; exists {
		r.idxMu.Unlock()
		return false
	}
	r.indexes[name] = ix
	r.idxMu.Unlock()
	r.chains.Ascend("", "", func(key string, c *Chain[T]) bool {
		if v, live := c.ReadLatest(); live {
			if vk, ok := keyOf(v); ok {
				ix.add(vk, key, c) // in key order: each entry sorts last
			}
		}
		return true
	})
	return true
}

// HasIndex reports whether an index called name exists.
func (r *Records[T]) HasIndex(name string) bool {
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	_, ok := r.indexes[name]
	return ok
}

// IndexNames lists the index names in sorted order.
func (r *Records[T]) IndexNames() []string {
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	names := make([]string, 0, len(r.indexes))
	for n := range r.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup calls fn, in key order, for every record visible to tx that
// index name lists under valKey, until fn returns false. It reads each
// entry's chain directly and allocates nothing. The index is advisory:
// fn must re-check its predicate.
func (r *Records[T]) Lookup(tx *Tx, name, valKey string, fn func(key string, value T) bool) {
	r.idxMu.RLock()
	ix := r.indexes[name]
	r.idxMu.RUnlock()
	if ix == nil {
		return
	}
	ix.mu.RLock()
	b := ix.buckets[valKey]
	ix.mu.RUnlock()
	for _, e := range b {
		if v, ok := e.c.Visible(tx); ok && !fn(e.key, v) {
			return
		}
	}
}

// Batch adapts a per-record producer to a per-batch consumer: values
// passed to emit are gathered into buf and fn is called once per full
// buffer (batch size = cap(buf), 1024 when buf has none) plus once for
// the final remainder. The delivered slice is reused between calls. fn
// returning false stops the producer.
func Batch[T any](buf []T, fn func([]T) bool, produce func(emit func(T) bool)) {
	if cap(buf) == 0 {
		buf = make([]T, 0, 1024)
	}
	buf = buf[:0]
	stopped := false
	produce(func(v T) bool {
		buf = append(buf, v)
		if len(buf) == cap(buf) {
			if !fn(buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if !stopped && len(buf) > 0 {
		fn(buf)
	}
}
