// Package kv implements the key-value data model of the UDBMS
// benchmark: an ordered, multi-versioned key-value store with snapshot
// reads, transactional writes and range scans. It is the thinnest
// store: the shared record layer (txn.Records) with prefix scans and
// the key-value WAL ops on top.
//
// In the Figure-1 dataset this store holds the Feedback messages
// (key "feedback/<customerID>/<orderID>" -> rating payload). It is
// also the baseline store of the polyglot federation.
package kv

import (
	"fmt"

	"udbench/internal/mmvalue"
	"udbench/internal/ordmap"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// Store is an ordered transactional key-value store: a txn.Records of
// mmvalue payloads plus the key-value WAL ops. All operations accept a
// transaction; passing nil runs the operation in its own auto-committed
// transaction.
type Store struct {
	name string
	recs *txn.Records[mmvalue.Value]
}

// NewStore creates a store named name attached to mgr. The name
// prefixes lock resources, so two stores on one manager never collide.
func NewStore(name string, mgr *txn.Manager) *Store {
	return &Store{name: name, recs: txn.NewRecords[mmvalue.Value](mgr, name+"/")}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Manager returns the transaction manager the store is attached to.
func (s *Store) Manager() *txn.Manager { return s.recs.Manager() }

// Put stores value under key.
func (s *Store) Put(tx *txn.Tx, key string, value mmvalue.Value) error {
	if key == "" {
		return fmt.Errorf("kv %s: empty key", s.name)
	}
	return s.recs.Auto(tx, func(tx *txn.Tx) error {
		rec, err := s.recs.Lock(tx, key)
		if err != nil {
			return err
		}
		s.recs.Stage(tx, rec, value)
		if tx.Logging() {
			tx.LogOp(wal.NewOp(wal.OpKVPut).String(key).
				Bytes(mmvalue.AppendBinary(nil, value)).Build())
		}
		return nil
	})
}

// Version counts committed writes to the store (txn.Records.Version).
func (s *Store) Version() uint64 { return s.recs.Version() }

// Get returns the value visible to tx (snapshot read). With a nil tx it
// returns the latest committed value.
func (s *Store) Get(tx *txn.Tx, key string) (mmvalue.Value, bool) {
	return s.recs.Get(tx, key)
}

// Scan calls fn for every live key in [start, end) in key order, as
// visible to tx (or the latest committed state when tx is nil). An
// empty end scans to the end of the keyspace. Iteration stops early
// when fn returns false.
func (s *Store) Scan(tx *txn.Tx, start, end string, fn func(key string, value mmvalue.Value) bool) {
	s.recs.Scan(tx, start, end, fn)
}

// ScanPrefix scans every live key with the given prefix.
func (s *Store) ScanPrefix(tx *txn.Tx, prefix string, fn func(key string, value mmvalue.Value) bool) {
	s.recs.Scan(tx, prefix, ordmap.PrefixEnd(prefix), fn)
}

// Len returns the number of live keys at the latest committed state.
// It is O(n); intended for statistics, not hot paths.
func (s *Store) Len() int { return s.recs.Count() }
