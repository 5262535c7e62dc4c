// Package ordmap provides a concurrent ordered map from string keys to
// arbitrary payloads. It is the physical index structure under the
// record layer: txn.Records keeps its version chains in one ordmap.Map,
// and the key-value store, relational tables, document collections,
// the XML registry and the graph's vertices and edges are each built on
// a txn.Records rather than on this package directly.
//
// Each key lives in two structures: a hash for point lookups (Get and
// GetOrInsert of an existing key) and a skip list for order (Ascend).
// Only a first insert and a remove touch both; a point read never walks
// the skip list.
//
// Structural operations (insert, remove, iterate) are guarded by an
// internal RWMutex; payload values must handle their own
// synchronization (the record layer's payloads are txn version chains).
package ordmap

import (
	"math/rand"
	"sync"
)

const maxLevel = 24

// Map is an ordered map. Create with New; the zero value is not usable.
type Map[T any] struct {
	mu    sync.RWMutex
	hash  map[string]*node[T]
	head  *node[T]
	level int
	rnd   *rand.Rand
}

type node[T any] struct {
	key  string
	val  T
	next []*node[T]
}

// New returns an empty map. The seed drives skip-list level selection
// only; any constant yields a correct structure.
func New[T any](seed int64) *Map[T] {
	return &Map[T]{
		hash:  make(map[string]*node[T]),
		head:  &node[T]{next: make([]*node[T], maxLevel)},
		level: 1,
		rnd:   rand.New(rand.NewSource(seed)),
	}
}

func (m *Map[T]) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && m.rnd.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// Get returns the payload stored at key.
func (m *Map[T]) Get(key string) (T, bool) {
	m.mu.RLock()
	n := m.hash[key]
	m.mu.RUnlock()
	if n == nil {
		var zero T
		return zero, false
	}
	return n.val, true
}

// seekGE returns the first node with key >= target; callers hold mu.
func (m *Map[T]) seekGE(target string) *node[T] {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < target {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// predecessors fills update with the rightmost node before key on every
// level and returns the first node with key >= key; callers hold mu.
func (m *Map[T]) predecessors(key string, update *[maxLevel]*node[T]) *node[T] {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// GetOrInsert returns the payload at key, inserting mk() if absent.
// The boolean reports whether an insert happened.
func (m *Map[T]) GetOrInsert(key string, mk func() T) (T, bool) {
	if v, ok := m.Get(key); ok {
		return v, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.hash[key]; n != nil {
		return n.val, false
	}
	var update [maxLevel]*node[T]
	m.predecessors(key, &update)
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	n := &node[T]{key: key, val: mk(), next: make([]*node[T], lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.hash[key] = n
	return n.val, true
}

// Remove physically unlinks key; it reports whether the key existed.
func (m *Map[T]) Remove(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hash[key] == nil {
		return false
	}
	var update [maxLevel]*node[T]
	n := m.predecessors(key, &update)
	for i := 0; i < len(n.next); i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	for m.level > 1 && m.head.next[m.level-1] == nil {
		m.level--
	}
	delete(m.hash, key)
	return true
}

// Ascend calls fn for every (key, payload) with start <= key < end in
// key order. An empty end means unbounded. Iteration stops when fn
// returns false. The structural read lock is held throughout, so fn
// must not insert or remove.
func (m *Map[T]) Ascend(start, end string, fn func(key string, val T) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for n := m.seekGE(start); n != nil; n = n.next[0] {
		if end != "" && n.key >= end {
			return
		}
		if !fn(n.key, n.val) {
			return
		}
	}
}

// Len returns the number of stored keys.
func (m *Map[T]) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.hash)
}

// PrefixEnd returns the smallest key greater than every key with the
// given prefix, or "" (unbounded) if the prefix is all 0xff bytes.
func PrefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}
