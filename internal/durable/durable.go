// Package durable binds the storage engines to the write-ahead log in
// internal/wal: it opens (or recovers) a database from a directory,
// attaches group-commit logging to the transaction manager, takes
// consistent snapshots, and replays log records after a crash.
//
// # Recovery architecture
//
// A durable directory holds one append-only log ("wal.log") and zero or
// more atomically-installed snapshots ("snap-<ts>.snap"). Open rebuilds
// the in-memory engine in three steps:
//
//  1. Load the newest readable snapshot (corrupt or torn snapshots fall
//     back to the previous one). The payload is the same op-blob stream
//     the log carries, so one dispatcher applies both; snapshot ops are
//     applied through txn.Manager.Bulk, txn.BulkBatch ops per
//     transaction, like any other bulk load.
//  2. Replay the log through the five stores, skipping records
//     at or below the snapshot timestamp. Each record is one committed
//     transaction and is re-applied as one transaction, so a replayed
//     prefix is always transaction-consistent. A torn or corrupt tail
//     is truncated — by the log's ordering invariant it can only be a
//     suffix of uncommitted (never acknowledged) records.
//  3. Fast-forward the commit watermark past the last replayed
//     timestamp and attach a fresh log so new commits append after the
//     recovered history.
//
// Replay is idempotent: every op is an upsert or a tombstone keyed by
// its primary identifier, so applying a log twice converges to the same
// state (pinned by TestReplayIdempotent).
package durable

import (
	"fmt"
	"time"

	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/wal"
	"udbench/internal/xmlstore"
)

// LogName is the log file name inside a durable directory.
const LogName = "wal.log"

// Options tunes a durable database.
type Options struct {
	// FS is the backing filesystem (default wal.OSFS).
	FS wal.FS
	// Policy is the fsync policy (default wal.SyncGroup).
	Policy wal.SyncPolicy
	// AsyncInterval is the background flush cadence under
	// wal.SyncAsync.
	AsyncInterval time.Duration
}

func (o Options) fs() wal.FS {
	if o.FS == nil {
		return wal.OSFS{}
	}
	return o.FS
}

// RecoveryStats describes what Open rebuilt.
type RecoveryStats struct {
	// SnapshotTS is the timestamp of the snapshot loaded (0 = none).
	SnapshotTS uint64 `json:"snapshot_ts"`
	// SnapshotOps is the number of ops applied from the snapshot.
	SnapshotOps int `json:"snapshot_ops"`
	// Records is the number of log records replayed (after the skip).
	Records int `json:"records"`
	// OpsReplayed is the number of store ops inside those records.
	OpsReplayed int `json:"ops_replayed"`
	// LogBytes is the size of the valid log prefix.
	LogBytes int64 `json:"log_bytes"`
	// Truncated reports that a torn or corrupt log tail was cut off.
	Truncated bool `json:"truncated"`
	// WatermarkTS is the commit watermark after recovery.
	WatermarkTS uint64 `json:"watermark_ts"`
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// DB is a unified database with durability attached.
type DB struct {
	*udbms.DB

	dir  string
	opts Options
	log  *wal.Log

	// Recovery describes what Open rebuilt from disk.
	Recovery RecoveryStats
}

// Open opens (or creates) a durable unified database rooted at dir:
// it recovers state from the newest snapshot plus the log tail, then
// attaches group-commit logging for new transactions.
func Open(dir string, opts Options) (*DB, error) {
	start := time.Now()
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	db := udbms.Open()
	rec, err := recoverDir(fsys, dir, db)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenLog(dir+"/"+LogName, wal.Options{
		FS: fsys, Policy: opts.Policy, AsyncInterval: opts.AsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	log.SetDurableFloor(rec.WatermarkTS)
	db.Manager().SetCommitLog(log)
	rec.Elapsed = time.Since(start)
	return &DB{DB: db, dir: dir, opts: opts, log: log, Recovery: rec}, nil
}

// recoverDir rebuilds db from dir's snapshot and log. It returns the
// recovery stats with everything but Elapsed filled in.
func recoverDir(fsys wal.FS, dir string, db *udbms.DB) (RecoveryStats, error) {
	var rec RecoveryStats
	snapTS, payload, ok, err := wal.LatestSnapshot(fsys, dir)
	if err != nil {
		return rec, fmt.Errorf("durable: snapshot: %w", err)
	}
	if ok {
		_, ops, err := wal.DecodeCommit(payload)
		if err != nil {
			return rec, fmt.Errorf("durable: snapshot payload: %w", err)
		}
		if err := db.Manager().Bulk(len(ops), func(tx *txn.Tx, i int) error {
			return applyOp(db, tx, ops[i])
		}); err != nil {
			return rec, fmt.Errorf("durable: snapshot apply: %w", err)
		}
		rec.SnapshotOps = len(ops)
		rec.SnapshotTS = snapTS
	}
	rs, err := wal.Replay(fsys, dir+"/"+LogName, func(ts uint64, ops [][]byte) error {
		if ts <= snapTS {
			return nil // already inside the snapshot
		}
		if err := applyOps(db, ops); err != nil {
			return err
		}
		rec.Records++
		rec.OpsReplayed += len(ops)
		return nil
	})
	if err != nil {
		return rec, fmt.Errorf("durable: replay: %w", err)
	}
	rec.LogBytes = rs.Bytes
	rec.Truncated = rs.Truncated
	rec.WatermarkTS = max(rs.LastTS, snapTS)
	db.Manager().RestoreWatermark(txn.TS(rec.WatermarkTS))
	return rec, nil
}

// Checkpoint writes a snapshot of the current committed state and
// returns its timestamp. The snapshot is a consistent cut at the commit
// watermark: it runs under one read transaction, so replay afterwards
// only needs the log records above the returned timestamp.
func (d *DB) Checkpoint() (uint64, error) {
	tx := d.Begin()
	defer tx.Abort()
	ts := uint64(tx.BeginTS())
	payload := wal.AppendCommit(nil, ts, encodeState(d.DB, tx))
	if _, err := wal.WriteSnapshot(d.opts.fs(), d.dir, ts, payload); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	return ts, nil
}

// DurabilityStats returns the log's telemetry.
func (d *DB) DurabilityStats() *wal.Stats {
	s := d.log.Stats()
	return &s
}

// Log exposes the underlying write-ahead log (tests and experiments).
func (d *DB) Log() *wal.Log { return d.log }

// Close detaches logging and closes the log. The in-memory engine
// stays usable (non-durably) afterwards.
func (d *DB) Close() error {
	d.Manager().SetCommitLog(nil)
	return d.log.Close()
}

// applyOps re-applies one committed transaction's ops inside a single
// transaction, preserving the original atomicity boundary.
func applyOps(db *udbms.DB, ops [][]byte) error {
	return db.RunTx(func(tx *txn.Tx) error {
		for _, op := range ops {
			if err := applyOp(db, tx, op); err != nil {
				return err
			}
		}
		return nil
	})
}

// applyOp dispatches one op blob to its store. Every path is an upsert
// or an idempotent tombstone, so replaying a prefix twice converges.
func applyOp(db *udbms.DB, tx *txn.Tx, op []byte) error {
	d := wal.DecodeOp(op)
	switch d.Code() {
	case wal.OpKVPut:
		key := d.String()
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		return db.KV.Put(tx, key, v)
	case wal.OpKVDelete:
		key := d.String()
		if err := d.Done(); err != nil {
			return err
		}
		return db.KV.Delete(tx, key)
	case wal.OpDocPut:
		coll, _ := d.String(), d.String() // id is re-derived from the doc
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		return db.Docs.Collection(coll).ApplyPut(tx, v)
	case wal.OpDocDelete:
		coll, id := d.String(), d.String()
		if err := d.Done(); err != nil {
			return err
		}
		return db.Docs.Collection(coll).Delete(tx, id)
	case wal.OpDocCreateIndex:
		coll, path := d.String(), d.String()
		if err := d.Done(); err != nil {
			return err
		}
		if c := db.Docs.Collection(coll); !c.HasIndex(path) {
			return c.CreateIndex(path)
		}
		return nil
	case wal.OpRelCreateTable:
		name, schema, err := relational.DecodeCreateTable(d)
		if err != nil {
			return err
		}
		if _, exists := db.Relational.Table(name); exists {
			return nil
		}
		_, err = db.Relational.CreateTable(name, schema)
		return err
	case wal.OpRelCreateIndex:
		name, col := d.String(), d.String()
		if err := d.Done(); err != nil {
			return err
		}
		t, ok := db.Relational.Table(name)
		if !ok {
			return fmt.Errorf("durable: create-index on unknown table %q", name)
		}
		if !t.HasIndex(col) {
			return t.CreateIndex(col)
		}
		return nil
	case wal.OpRelPut:
		name := d.String()
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		t, ok := db.Relational.Table(name)
		if !ok {
			return fmt.Errorf("durable: put on unknown table %q", name)
		}
		return t.ApplyPut(tx, v)
	case wal.OpRelDelete:
		name, pk := d.String(), d.String()
		if err := d.Done(); err != nil {
			return err
		}
		t, ok := db.Relational.Table(name)
		if !ok {
			return fmt.Errorf("durable: delete on unknown table %q", name)
		}
		return t.ApplyDelete(tx, pk)
	case wal.OpGraphVertex:
		id, label := d.String(), d.String()
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		return db.Graph.ApplyVertex(tx, graph.VID(id), label, v)
	case wal.OpGraphEdge:
		id, label := d.String(), d.String()
		from, to := d.String(), d.String()
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		return db.Graph.ApplyEdge(tx, graph.EID(id), label, graph.VID(from), graph.VID(to), v)
	case wal.OpGraphVertexProps:
		id := d.String()
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		return db.Graph.SetVertexProps(tx, graph.VID(id),
			func(mmvalue.Value) (mmvalue.Value, error) { return v, nil })
	case wal.OpGraphRemoveVertex:
		id := d.String()
		if err := d.Done(); err != nil {
			return err
		}
		return db.Graph.RemoveVertex(tx, graph.VID(id))
	case wal.OpGraphRemoveEdge:
		id := d.String()
		if err := d.Done(); err != nil {
			return err
		}
		return db.Graph.RemoveEdge(tx, graph.EID(id))
	case wal.OpXMLPut:
		id := d.String()
		raw := d.Bytes()
		if err := d.Done(); err != nil {
			return err
		}
		doc, err := xmlstore.Parse(raw)
		if err != nil {
			return fmt.Errorf("durable: xml op: %w", err)
		}
		return db.XML.Put(tx, id, doc)
	case wal.OpXMLDelete:
		id := d.String()
		if err := d.Done(); err != nil {
			return err
		}
		return db.XML.Delete(tx, id)
	default:
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("durable: unknown op code 0x%02x", d.Code())
	}
}

// decodeValue reads the final Bytes field of d as a binary mmvalue.
func decodeValue(d *wal.OpDecoder) (mmvalue.Value, error) {
	raw := d.Bytes()
	if err := d.Done(); err != nil {
		return mmvalue.Null, err
	}
	v, rest, err := mmvalue.DecodeBinary(raw)
	if err != nil {
		return mmvalue.Null, err
	}
	if len(rest) != 0 {
		return mmvalue.Null, fmt.Errorf("durable: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

// encodeState renders everything visible to tx as one op stream, in
// dependency order: DDL before rows, vertices before edges. The stream
// is the snapshot payload and uses the exact codec the log uses, so
// applying it goes through the same dispatcher as replay.
func encodeState(db *udbms.DB, tx *txn.Tx) [][]byte {
	var ops [][]byte
	for _, name := range db.Relational.TableNames() {
		t, _ := db.Relational.Table(name)
		ops = append(ops, relational.EncodeCreateTable(name, t.Schema()))
		for _, col := range t.IndexedColumns() {
			ops = append(ops, wal.NewOp(wal.OpRelCreateIndex).String(name).String(col).Build())
		}
		t.Stream(tx, nil, func(row mmvalue.Value) bool {
			ops = append(ops, wal.NewOp(wal.OpRelPut).String(name).
				Bytes(mmvalue.AppendBinary(nil, row)).Build())
			return true
		})
	}
	for _, name := range db.Docs.CollectionNames() {
		c := db.Docs.Collection(name)
		for _, path := range c.IndexPaths() {
			ops = append(ops, wal.NewOp(wal.OpDocCreateIndex).String(name).String(path).Build())
		}
		c.Stream(tx, nil, func(doc mmvalue.Value) bool {
			id := docID(doc)
			ops = append(ops, wal.NewOp(wal.OpDocPut).String(name).String(id).
				Bytes(mmvalue.AppendBinary(nil, doc)).Build())
			return true
		})
	}
	db.Graph.Vertices(tx, func(v graph.Vertex) bool {
		ops = append(ops, wal.NewOp(wal.OpGraphVertex).String(string(v.ID)).String(v.Label).
			Bytes(mmvalue.AppendBinary(nil, v.Props)).Build())
		return true
	})
	db.Graph.Edges(tx, "", func(e graph.Edge) bool { // in id order
		ops = append(ops, wal.NewOp(wal.OpGraphEdge).String(string(e.ID)).String(e.Label).
			String(string(e.From)).String(string(e.To)).
			Bytes(mmvalue.AppendBinary(nil, e.Props)).Build())
		return true
	})
	db.KV.Scan(tx, "", "", func(key string, value mmvalue.Value) bool {
		ops = append(ops, wal.NewOp(wal.OpKVPut).String(key).
			Bytes(mmvalue.AppendBinary(nil, value)).Build())
		return true
	})
	db.XML.Scan(tx, func(id string, doc *xmlstore.Node) bool {
		ops = append(ops, wal.NewOp(wal.OpXMLPut).String(id).Bytes(xmlstore.Marshal(doc)).Build())
		return true
	})
	return ops
}

func docID(doc mmvalue.Value) string {
	if obj, ok := doc.AsObject(); ok {
		if idv, ok := obj.Get("_id"); ok {
			if id, ok := idv.AsString(); ok {
				return id
			}
		}
	}
	return ""
}
