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
	// joins, the cached projection or the index probes spent without
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

// JoinStats reports how the pipeline executor's equality joins have
// found their matches since Open: cached projections, index probes,
// build scans.
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
