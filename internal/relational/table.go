package relational

import (
	"fmt"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/wal"
)

// Table is a transactional relational table: a txn.Records of rows
// keyed by encoded primary key, plus the schema, predicate routing and
// the relational WAL ops.
//
// Secondary equality indexes are the record layer's advisory indexes:
// a lookup may return extra candidates, so Stream always re-checks the
// predicate against the snapshot-visible row.
type Table struct {
	name   string
	schema Schema
	rows   *txn.Records[mmvalue.Value]
}

// NewTable creates a table with the given schema attached to mgr.
func NewTable(name string, schema Schema, mgr *txn.Manager) *Table {
	return &Table{name: name, schema: schema, rows: txn.NewRecords[mmvalue.Value](mgr, name+"/")}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Manager returns the transaction manager.
func (t *Table) Manager() *txn.Manager { return t.rows.Manager() }

// Version counts committed writes to the table; see
// txn.Records.Version for the guarantee the executor's join-build cache
// relies on.
func (t *Table) Version() uint64 { return t.rows.Version() }

// CreateIndex adds a secondary equality index on column and backfills
// it from the latest committed rows.
func (t *Table) CreateIndex(column string) error {
	if _, ok := t.schema.Column(column); !ok {
		return fmt.Errorf("relational %s: no column %q to index", t.name, column)
	}
	created := t.rows.CreateIndex(column, func(row mmvalue.Value) (string, bool) {
		v, ok := row.MustObject().Get(column)
		if !ok {
			return "", false
		}
		return indexKey(v), true
	})
	if !created {
		return fmt.Errorf("relational %s: index on %q already exists", t.name, column)
	}
	// DDL is durable too, so recovery rebuilds the index before
	// replaying rows.
	return t.Manager().LogDDL(func() []byte {
		return wal.NewOp(wal.OpRelCreateIndex).String(t.name).String(column).Build()
	})
}

// IndexedColumns lists the columns with a secondary index, in sorted
// order (used by snapshot encoding).
func (t *Table) IndexedColumns() []string { return t.rows.IndexNames() }

// UsesIndex reports whether Stream would serve the predicate from the
// primary key or a secondary index rather than a table scan.
func (t *Table) UsesIndex(e Expr) bool {
	if e == nil {
		return false
	}
	col, _, ok := e.equalityOn()
	return ok && (col == t.schema.PrimaryKey || t.HasIndex(col))
}

// HasIndex reports whether a secondary index exists on column.
func (t *Table) HasIndex(column string) bool { return t.rows.HasIndex(column) }

// pkOf extracts and encodes the primary key of a valid row.
func (t *Table) pkOf(row mmvalue.Value) (string, error) {
	obj, ok := row.AsObject()
	if !ok {
		return "", fmt.Errorf("relational %s: row must be an object", t.name)
	}
	v, ok := obj.Get(t.schema.PrimaryKey)
	if !ok || v.IsNull() {
		return "", fmt.Errorf("relational %s: missing primary key %q", t.name, t.schema.PrimaryKey)
	}
	return EncodeKey(v), nil
}

// Insert adds a new row. It fails if a live row with the same primary
// key is visible at latest-committed state or pending in this
// transaction.
func (t *Table) Insert(tx *txn.Tx, row mmvalue.Value) error { return t.put(tx, row, false) }

// ApplyPut is the replay path: it upserts row by its primary key
// without the duplicate-key check, so recovery can reapply a logged put
// whether or not a snapshot already holds the row.
func (t *Table) ApplyPut(tx *txn.Tx, row mmvalue.Value) error { return t.put(tx, row, true) }

func (t *Table) put(tx *txn.Tx, row mmvalue.Value, upsert bool) error {
	if err := t.schema.ValidateRow(row); err != nil {
		return err
	}
	pk, err := t.pkOf(row)
	if err != nil {
		return err
	}
	return t.rows.Auto(tx, func(tx *txn.Tx) error {
		rec, err := t.rows.Lock(tx, pk)
		if err != nil {
			return err
		}
		if !upsert {
			if _, exists := rec.Current(tx); exists {
				return fmt.Errorf("relational %s: duplicate primary key %v", t.name, pk)
			}
		}
		t.stage(tx, rec, row.Clone())
		return nil
	})
}

// stage writes row as tx's new version of the locked record and logs
// the put.
func (t *Table) stage(tx *txn.Tx, rec *txn.Chain[mmvalue.Value], row mmvalue.Value) {
	t.rows.Stage(tx, rec, row)
	if tx.Logging() {
		tx.LogOp(wal.NewOp(wal.OpRelPut).String(t.name).
			Bytes(mmvalue.AppendBinary(nil, row)).Build())
	}
}

// Get returns the row with the given primary-key value as visible to
// tx (latest committed when tx is nil). The returned row is shared;
// callers must Clone before mutating.
func (t *Table) Get(tx *txn.Tx, pkValue any) (mmvalue.Value, bool) {
	return t.rows.Get(tx, EncodeKey(mmvalue.From(pkValue)))
}

// Len returns the number of row slots in the table, including those of
// inserts that never committed. It is a cheap upper bound on the row
// count, intended for executor sizing decisions.
func (t *Table) Len() int { return t.rows.Len() }

// Stream calls fn for every live row visible to tx matching where
// (nil = all), in primary-key order, stopping early when fn returns
// false. Unlike Query.Rows, the rows are NOT cloned: they are shared
// with the store and must not be mutated. An equality predicate on the
// primary key resolves to a direct lookup; one on an indexed column
// uses the index; anything else scans.
func (t *Table) Stream(tx *txn.Tx, where Expr, fn func(row mmvalue.Value) bool) {
	if where == nil {
		where = TrueExpr{}
	}
	col, lit, eq := where.equalityOn()
	if eq && col == t.schema.PrimaryKey {
		// Probe every encoding a Compare-equal key may use (Int and
		// Float spell the same number differently).
		key, alt := pkEncodings(lit)
		for _, pk := range [2]string{key, alt} {
			if pk == "" {
				continue
			}
			if row, live := t.rows.Get(tx, pk); live && where.Eval(row) && !fn(row) {
				return
			}
		}
		return
	}
	matching := func(_ string, row mmvalue.Value) bool { return !where.Eval(row) || fn(row) }
	if eq && t.HasIndex(col) {
		t.rows.Lookup(tx, col, indexKey(lit), matching)
		return
	}
	t.rows.Scan(tx, "", "", matching)
}

// StreamRangeBatch streams the rows matching where (nil = all) whose
// encoded primary keys fall in [from, to) (empty to = unbounded) in
// batches: they are gathered into buf and fn is called once per full
// buffer (batch size = cap(buf)) plus once for the final remainder. The
// delivered slice is reused between calls and its rows are shared with
// the store: consume (or copy) within the callback, do not retain or
// mutate. fn returning false stops the scan. It always scans the key
// range directly off store memory, ignoring indexes — relbe's key-range
// scans (internal/backend/relbe) run on it.
func (t *Table) StreamRangeBatch(tx *txn.Tx, from, to string, where Expr, buf []mmvalue.Value, fn func(rows []mmvalue.Value) bool) {
	if where == nil {
		where = TrueExpr{}
	}
	txn.Batch(buf, fn, func(emit func(mmvalue.Value) bool) {
		t.rows.Scan(tx, from, to, func(_ string, row mmvalue.Value) bool {
			return !where.Eval(row) || emit(row)
		})
	})
}

// Count returns the number of live rows at latest-committed state.
func (t *Table) Count() int { return t.rows.Count() }
