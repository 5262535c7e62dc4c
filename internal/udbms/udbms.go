package udbms

import (
	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/kv"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// DB is a unified multi-model database instance.
type DB struct {
	mgr *txn.Manager

	// Relational is the relational model (tables).
	Relational *relational.DB
	// Docs is the JSON document model (collections).
	Docs *document.Store
	// Graph is the property-graph model.
	Graph *graph.Store
	// KV is the key-value model.
	KV *kv.Store
	// XML is the XML document model.
	XML *xmlstore.Store

	// joins holds, per build side of the pipeline executor's equality
	// joins, the cached hash table or the index probes spent without
	// one, keyed by store version (see joincache.go).
	joins joinCache
}

// Open creates an empty unified database. All five models share one
// transaction manager.
func Open() *DB {
	mgr := txn.NewManager()
	return &DB{
		mgr:        mgr,
		Relational: relational.NewDB(mgr),
		Docs:       document.NewStore("doc", mgr),
		Graph:      graph.NewStore("graph", mgr),
		KV:         kv.NewStore("kv", mgr),
		XML:        xmlstore.NewStore("xml", mgr),
	}
}

// Stores hands out the five model stores as the bundle datasets load
// into and op bodies run against.
func (db *DB) Stores() datagen.Target {
	return datagen.Target{Relational: db.Relational, Docs: db.Docs, Graph: db.Graph, KV: db.KV, XML: db.XML}
}

// Manager exposes the shared transaction manager.
func (db *DB) Manager() *txn.Manager { return db.mgr }

// Begin starts a cross-model transaction.
func (db *DB) Begin() *txn.Tx { return db.mgr.Begin() }

// RunTx executes fn in a cross-model transaction, committing on nil
// and aborting on error, retrying deadlock victims under the manager's
// default policy (txn.DefaultRetries, with backoff).
func (db *DB) RunTx(fn func(tx *txn.Tx) error) error {
	return db.mgr.Auto(nil, fn)
}

// JoinStats reports how the pipeline executor's hash joins have found
// their matches since Open: cached tables, index probes, build scans.
// It is kept out of Stats, which describes the dataset alone.
func (db *DB) JoinStats() JoinStats { return db.joins.stats() }

// Stats summarizes the live dataset (used by experiment F1).
type Stats struct {
	Tables      map[string]int // rows per relational table
	Collections map[string]int // docs per collection
	Vertices    int
	Edges       int
	KVPairs     int
	XMLDocs     int
}

// Compact garbage-collects old record versions across every model.
// When zero, the horizon defaults to the published commit watermark
// plus one — the tight correct bound under epoch commit: a version at
// or below the watermark is fully stamped and visible, so the versions
// it shadows can never be read by a new snapshot. Oracle().Current()
// would run ahead of the watermark while commits are mid-stamp and
// could GC versions still needed by a snapshot begun at the watermark.
// Compact must not run concurrently with transactions that read below
// the horizon; in the benchmark it runs between workload phases.
//
// Compact also sweeps idle lock-table entries: a write or delete of a
// key that does not exist locks its name anyway (LockExisting), leaving
// a lock entry with no version chain, and this is the watermark-keyed
// GC point that reclaims them. The sweep itself is safe against running
// transactions (busy entries are skipped); see txn.SweepLockEntries.
func (db *DB) Compact(horizon txn.TS) int {
	if horizon == 0 {
		horizon = db.mgr.Published() + 1
	}
	dropped := 0
	for _, name := range db.Relational.TableNames() {
		t, _ := db.Relational.Table(name)
		dropped += t.Compact(horizon)
	}
	for _, name := range db.Docs.CollectionNames() {
		dropped += db.Docs.Collection(name).Compact(horizon)
	}
	dropped += db.Graph.Compact(horizon)
	dropped += db.KV.Compact(horizon)
	dropped += db.XML.Compact(horizon)
	db.mgr.SweepLockEntries()
	return dropped
}

// Stats counts live records in every model at latest-committed state.
func (db *DB) Stats() Stats {
	st := Stats{
		Tables:      make(map[string]int),
		Collections: make(map[string]int),
	}
	for _, name := range db.Relational.TableNames() {
		t, _ := db.Relational.Table(name)
		st.Tables[name] = t.Count()
	}
	for _, name := range db.Docs.CollectionNames() {
		st.Collections[name] = db.Docs.Collection(name).Count()
	}
	st.Vertices = db.Graph.VertexCount(nil)
	st.Edges = db.Graph.EdgeCount(nil)
	st.KVPairs = db.KV.Len()
	st.XMLDocs = db.XML.Count()
	return st
}
