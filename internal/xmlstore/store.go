package xmlstore

import (
	"fmt"

	"udbench/internal/txn"
	"udbench/internal/wal"
)

// Store is a transactional registry of XML documents keyed by id: a
// txn.Records of trees plus the XML WAL ops. Stored trees are
// multi-versioned; readers get shared snapshots and must not mutate
// them (Update hands out clones).
type Store struct {
	name string
	docs *txn.Records[*Node]
}

// NewStore creates an empty XML store named name on mgr.
func NewStore(name string, mgr *txn.Manager) *Store {
	return &Store{name: name, docs: txn.NewRecords[*Node](mgr, name+"/")}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager.
func (s *Store) Manager() *txn.Manager { return s.docs.Manager() }

// Put stores (or replaces) the document under id.
func (s *Store) Put(tx *txn.Tx, id string, doc *Node) error {
	if id == "" {
		return fmt.Errorf("xmlstore %s: empty document id", s.name)
	}
	if doc == nil || doc.IsText() {
		return fmt.Errorf("xmlstore %s: document root must be an element", s.name)
	}
	return s.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, err := s.docs.Lock(tx, id)
		if err != nil {
			return err
		}
		s.docs.Stage(tx, rec, doc.Clone(), false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpXMLPut).String(id).Bytes(Marshal(doc)).Build())
		}
		return nil
	})
}

// Get returns the document visible to tx. The returned tree is shared;
// Clone before mutating.
func (s *Store) Get(tx *txn.Tx, id string) (*Node, bool) { return s.docs.Get(tx, id) }

// Update applies fn to a clone of the current document and stores the
// result.
func (s *Store) Update(tx *txn.Tx, id string, fn func(doc *Node) (*Node, error)) error {
	return s.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, cur, live, err := s.docs.LockLive(tx, id)
		if err != nil {
			return err
		}
		if !live {
			return fmt.Errorf("xmlstore %s: no document %q", s.name, id)
		}
		next, err := fn(cur.Clone())
		if err != nil {
			return err
		}
		if next == nil || next.IsText() {
			return fmt.Errorf("xmlstore %s: updated root must be an element", s.name)
		}
		s.docs.Stage(tx, rec, next, false)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpXMLPut).String(id).Bytes(Marshal(next)).Build())
		}
		return nil
	})
}

// Delete tombstones the document; deleting a missing id is a no-op.
func (s *Store) Delete(tx *txn.Tx, id string) error {
	return s.docs.Auto(tx, func(tx *txn.Tx) error {
		rec, ok, err := s.docs.LockExisting(tx, id)
		if err != nil || !ok {
			return err
		}
		s.docs.Stage(tx, rec, nil, true)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpXMLDelete).String(id).Build())
		}
		return nil
	})
}

// Scan calls fn for every live document visible to tx in id order.
func (s *Store) Scan(tx *txn.Tx, fn func(id string, doc *Node) bool) {
	s.docs.Scan(tx, "", "", fn)
}

// Count returns the number of live documents at latest-committed state.
func (s *Store) Count() int { return s.docs.Count() }

// Version counts committed writes to the store (txn.Records.Version).
func (s *Store) Version() uint64 { return s.docs.Version() }

// Len is the number of document ids ever stored, tombstoned ones
// included: an upper bound on Count that costs no scan.
func (s *Store) Len() int { return s.docs.Len() }

// Compact garbage-collects old versions and unlinks dead documents.
func (s *Store) Compact(horizon txn.TS) int { return s.docs.Compact(horizon) }
