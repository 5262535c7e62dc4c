// Package document implements the JSON document data model of the
// UDBMS benchmark: schemaless collections of mmvalue objects with
// path-equality queries, partial updates and advisory
// path indexes. Each collection is a txn.Records: locking, versions,
// visibility, index maintenance and garbage collection are the shared
// record layer's; this package adds filters, paths and the document
// WAL ops.
//
// In the Figure-1 dataset this store holds Orders and Product
// documents.
package document

import (
	"fmt"
	"sort"
	"sync"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// IDField is the reserved document identifier field.
const IDField = "_id"

// Store is a set of named collections sharing one transaction manager.
type Store struct {
	name string
	mgr  *txn.Manager

	mu    sync.RWMutex
	colls map[string]*Collection
}

// NewStore creates an empty document store named name on mgr.
func NewStore(name string, mgr *txn.Manager) *Store {
	return &Store{name: name, mgr: mgr, colls: make(map[string]*Collection)}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager.
func (s *Store) Manager() *txn.Manager { return s.mgr }

// Collection returns the named collection, creating it on first use
// ("data first, schema later or never").
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c := s.colls[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.colls[name]; c == nil {
		c = &Collection{
			store: s,
			name:  name,
			docs:  txn.NewRecords[mmvalue.Value](s.mgr, s.name+"/"+name+"/"),
		}
		s.colls[name] = c
	}
	return c
}

// CollectionNames lists existing collections in sorted order.
func (s *Store) CollectionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.colls))
	for n := range s.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collection is a schemaless set of documents keyed by their _id
// string: a txn.Records of documents plus filter routing and the
// document WAL ops. Path indexes are the record layer's advisory
// indexes: Stream re-verifies every candidate against the visible
// document.
type Collection struct {
	store *Store
	name  string
	docs  *txn.Records[mmvalue.Value]
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Manager returns the transaction manager the collection is attached to.
func (c *Collection) Manager() *txn.Manager { return c.store.mgr }

// Version counts committed writes to the collection; see
// txn.Records.Version for the guarantee the executor's join-build cache
// relies on.
func (c *Collection) Version() uint64 { return c.docs.Version() }

// valKey normalizes a leaf value for indexing, consistent with
// mmvalue.Equal for scalars.
func valKey(v mmvalue.Value) string { return v.Key() }

// CreateIndex adds an advisory equality index on the dotted path and
// backfills it from latest committed documents.
func (c *Collection) CreateIndex(path string) error {
	pp := mmvalue.ParsePath(path)
	created := c.docs.CreateIndex(path, func(doc mmvalue.Value) (string, bool) {
		v, ok := pp.Lookup(doc)
		if !ok {
			return "", false
		}
		return valKey(v), true
	})
	if !created {
		return fmt.Errorf("document %s: index on %q already exists", c.name, path)
	}
	// DDL is durable too, so recovery rebuilds the index before
	// replaying documents.
	return c.store.mgr.LogDDL(func() []byte {
		return wal.NewOp(wal.OpDocCreateIndex).String(c.name).String(path).Build()
	})
}

// IndexPaths lists the dotted paths with an index, in sorted order
// (used by snapshot encoding).
func (c *Collection) IndexPaths() []string { return c.docs.IndexNames() }

// HasIndex reports whether an index exists on the dotted path.
func (c *Collection) HasIndex(path string) bool { return c.docs.HasIndex(path) }

// idOf extracts the _id of a document to be stored.
func (c *Collection) idOf(doc mmvalue.Value) (string, error) {
	obj, ok := doc.AsObject()
	if !ok {
		return "", fmt.Errorf("document %s: document must be an object", c.name)
	}
	idv, ok := obj.Get(IDField)
	if !ok {
		return "", fmt.Errorf("document %s: missing %s", c.name, IDField)
	}
	id, ok := idv.AsString()
	if !ok || id == "" {
		return "", fmt.Errorf("document %s: %s must be a non-empty string", c.name, IDField)
	}
	return id, nil
}

// Insert stores doc under its _id field (which must be a non-empty
// string). Inserting an existing id fails.
func (c *Collection) Insert(tx *txn.Tx, doc mmvalue.Value) error { return c.put(tx, doc, false) }

// ApplyPut is the replay path: it upserts doc under its _id without the
// duplicate-id check, so recovery can reapply a logged put whether or
// not a snapshot already holds the document.
func (c *Collection) ApplyPut(tx *txn.Tx, doc mmvalue.Value) error { return c.put(tx, doc, true) }

func (c *Collection) put(tx *txn.Tx, doc mmvalue.Value, upsert bool) error {
	id, err := c.idOf(doc)
	if err != nil {
		return err
	}
	return c.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, err := c.docs.Lock(tx, id)
		if err != nil {
			return err
		}
		if !upsert {
			if _, exists := rec.Current(tx); exists {
				return fmt.Errorf("document %s: duplicate %s %q", c.name, IDField, id)
			}
		}
		c.stage(tx, id, rec, doc.Clone())
		return nil
	})
}

// stage writes doc as tx's new version of id and logs the put.
func (c *Collection) stage(tx *txn.Tx, id string, rec *txn.Chain[mmvalue.Value], doc mmvalue.Value) {
	c.docs.Stage(tx, rec, doc, false)
	if tx.Logging() {
		tx.LogOp(wal.NewOp(wal.OpDocPut).String(c.name).String(id).
			Bytes(mmvalue.AppendBinary(nil, doc)).Build())
	}
}

// Get returns the document with the given id as visible to tx. The
// returned document is shared; Clone before mutating.
func (c *Collection) Get(tx *txn.Tx, id string) (mmvalue.Value, bool) { return c.docs.Get(tx, id) }

// Update applies fn to a clone of the current document and stores the
// result; fn must keep the _id unchanged.
func (c *Collection) Update(tx *txn.Tx, id string, fn func(doc mmvalue.Value) (mmvalue.Value, error)) error {
	return c.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, cur, live, err := c.docs.LockLive(tx, id)
		if err != nil {
			return err
		}
		if !live {
			return fmt.Errorf("document %s: no document %q", c.name, id)
		}
		next, err := fn(cur.Clone())
		if err != nil {
			return err
		}
		no, ok := next.AsObject()
		if !ok {
			return fmt.Errorf("document %s: updated document must be an object", c.name)
		}
		if nid, _ := no.Get(IDField); !mmvalue.Equal(nid, mmvalue.String(id)) {
			return fmt.Errorf("document %s: update may not change %s", c.name, IDField)
		}
		c.stage(tx, id, rec, next)
		return nil
	})
}

// SetPath sets a single dotted path inside the document to value
// (a convenience wrapper over Update).
func (c *Collection) SetPath(tx *txn.Tx, id, path string, value mmvalue.Value) error {
	return c.Update(tx, id, func(doc mmvalue.Value) (mmvalue.Value, error) {
		return mmvalue.ParsePath(path).Set(doc, value)
	})
}

// Delete tombstones the document; deleting a missing id is a no-op.
func (c *Collection) Delete(tx *txn.Tx, id string) error {
	return c.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, ok, err := c.docs.LockExisting(tx, id)
		if err != nil || !ok {
			return err
		}
		c.docs.Stage(tx, rec, mmvalue.Null, true)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpDocDelete).String(c.name).String(id).Build())
		}
		return nil
	})
}

// Len returns the number of document slots in the collection, including
// tombstoned documents not yet compacted. It is a cheap upper bound on
// the live document count, intended for executor sizing decisions.
func (c *Collection) Len() int { return c.docs.Len() }

// Stream calls fn for every live document visible to tx that matches
// filter (nil = all), in id order, stopping early when fn returns
// false. Unlike Find, the documents are NOT cloned: they are shared
// with the store and must not be mutated. When the filter pins an
// indexed path the index is used instead of a full scan.
func (c *Collection) Stream(tx *txn.Tx, filter Filter, fn func(doc mmvalue.Value) bool) {
	if filter == nil {
		filter = Everything()
	}
	matching := func(_ string, doc mmvalue.Value) bool { return !filter.Match(doc) || fn(doc) }
	if path, lit, ok := filter.equalityOn(); ok && c.HasIndex(path) {
		c.docs.Lookup(tx, path, valKey(lit), matching)
		return
	}
	c.docs.Scan(tx, "", "", matching)
}

// LookupEq calls fn for every live document visible to tx whose value
// at path equals key, in id order, through the index on path (none
// without one); pp is path parsed. Index entries are advisory, so each
// candidate is re-checked as Eq(path, key) would: a missing path never
// matches. The documents are shared with the store, as in Stream.
func (c *Collection) LookupEq(tx *txn.Tx, path string, pp mmvalue.Path, key mmvalue.Value, fn func(doc mmvalue.Value) bool) {
	c.docs.Lookup(tx, path, valKey(key), func(_ string, doc mmvalue.Value) bool {
		v, ok := pp.Lookup(doc)
		return !ok || mmvalue.Compare(v, key) != 0 || fn(doc)
	})
}

// Count returns the number of live documents at latest-committed state.
func (c *Collection) Count() int { return c.docs.Count() }

// Compact garbage-collects old versions and removes dead documents and
// their index entries. Returns versions dropped.
func (c *Collection) Compact(horizon txn.TS) int { return c.docs.Compact(horizon) }
