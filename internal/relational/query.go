package relational

import (
	"fmt"
	"sort"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// Query is a fluent single-table query. Build with Table.Query, then
// chain Where/Project and finish with Rows, Count, HashJoin or GroupBy.
type Query struct {
	table   *Table
	tx      *txn.Tx
	where   Expr
	project []string
}

// Query starts a query over the table as seen by tx (latest committed
// when tx is nil).
func (t *Table) Query(tx *txn.Tx) *Query {
	return &Query{table: t, tx: tx, where: TrueExpr{}}
}

// Where restricts the result to rows matching e. Multiple calls AND.
func (q *Query) Where(e Expr) *Query {
	if _, isTrue := q.where.(TrueExpr); isTrue {
		q.where = e
	} else {
		q.where = And(q.where, e)
	}
	return q
}

// Project restricts returned rows to the named columns.
func (q *Query) Project(columns ...string) *Query {
	q.project = columns
	return q
}

// Rows executes the query and returns matching rows in primary-key
// order. Rows are clones; callers may mutate them freely.
func (q *Query) Rows() []mmvalue.Value {
	var out []mmvalue.Value
	// Stream owns the access-path choice (primary-key point lookup,
	// index route, or scan).
	q.table.Stream(q.tx, q.where, func(row mmvalue.Value) bool {
		out = append(out, row)
		return true
	})
	// Clone (and project) on the way out so callers cannot mutate
	// stored rows.
	res := make([]mmvalue.Value, len(out))
	for i, row := range out {
		if len(q.project) > 0 {
			obj := row.MustObject()
			po := mmvalue.NewObject()
			for _, c := range q.project {
				if v, ok := obj.Get(c); ok {
					po.Set(c, v.Clone())
				}
			}
			res[i] = mmvalue.FromObject(po)
		} else {
			res[i] = row.Clone()
		}
	}
	return res
}

// Count executes the query and returns the number of matching rows.
func (q *Query) Count() int {
	n := 0
	q.table.Stream(q.tx, q.where, func(mmvalue.Value) bool {
		n++
		return true
	})
	return n
}

// HashJoin joins the query result with right on left.leftCol =
// right.rightCol, returning merged rows where right columns are
// prefixed with right's table name + ".". The right side is read under
// the same transaction snapshot.
func (q *Query) HashJoin(right *Table, leftCol, rightCol string) []mmvalue.Value {
	leftRows := q.Rows()
	// Build hash table over the smaller probe direction: we hash the
	// right side (typically the dimension table).
	build := make(map[string][]mmvalue.Value)
	right.rows.Scan(q.tx, "", "", func(_ string, row mmvalue.Value) bool {
		if v, ok := row.MustObject().Get(rightCol); ok && !v.IsNull() {
			k := indexKey(v)
			build[k] = append(build[k], row)
		}
		return true
	})
	var out []mmvalue.Value
	for _, lr := range leftRows {
		lv, ok := lr.MustObject().Get(leftCol)
		if !ok || lv.IsNull() {
			continue
		}
		for _, rr := range build[indexKey(lv)] {
			merged := lr.MustObject().Clone()
			ro := rr.MustObject()
			for _, k := range ro.Keys() {
				v, _ := ro.Get(k)
				merged.Set(right.name+"."+k, v.Clone())
			}
			out = append(out, mmvalue.FromObject(merged))
		}
	}
	return out
}

// Agg is an aggregate specification for GroupBy.
type Agg struct {
	// Fn is one of "count", "sum", "avg", "min", "max".
	Fn string
	// Column is the aggregated column ("" allowed for count).
	Column string
	// As names the output field.
	As string
}

// GroupBy executes the query, groups rows by the named column and
// computes the aggregates per group. Each result row carries the group
// key under keyCol plus one field per aggregate. Results are ordered
// by group key.
func (q *Query) GroupBy(keyCol string, aggs ...Agg) ([]mmvalue.Value, error) {
	for _, a := range aggs {
		switch a.Fn {
		case "count", "sum", "avg", "min", "max":
		default:
			return nil, fmt.Errorf("relational: unknown aggregate %q", a.Fn)
		}
		if a.As == "" {
			return nil, fmt.Errorf("relational: aggregate needs an output name")
		}
	}
	type group struct {
		key  mmvalue.Value
		rows []mmvalue.Value
	}
	groups := make(map[string]*group)
	for _, row := range q.Rows() {
		k := row.MustObject().GetOr(keyCol, mmvalue.Null)
		ik := indexKey(k)
		g := groups[ik]
		if g == nil {
			g = &group{key: k}
			groups[ik] = g
		}
		g.rows = append(g.rows, row)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]mmvalue.Value, 0, len(groups))
	for _, ik := range keys {
		g := groups[ik]
		o := mmvalue.NewObject()
		o.Set(keyCol, g.key)
		for _, a := range aggs {
			o.Set(a.As, computeAgg(a, g.rows))
		}
		out = append(out, mmvalue.FromObject(o))
	}
	return out, nil
}

func computeAgg(a Agg, rows []mmvalue.Value) mmvalue.Value {
	switch a.Fn {
	case "count":
		return mmvalue.Int(int64(len(rows)))
	case "sum", "avg":
		sum := 0.0
		n := 0
		for _, r := range rows {
			if f, ok := r.MustObject().GetOr(a.Column, mmvalue.Null).AsFloat(); ok {
				sum += f
				n++
			}
		}
		if a.Fn == "sum" {
			return mmvalue.Float(sum)
		}
		if n == 0 {
			return mmvalue.Null
		}
		return mmvalue.Float(sum / float64(n))
	case "min", "max":
		var best mmvalue.Value
		first := true
		for _, r := range rows {
			v := r.MustObject().GetOr(a.Column, mmvalue.Null)
			if v.IsNull() {
				continue
			}
			if first {
				best, first = v, false
				continue
			}
			c := mmvalue.Compare(v, best)
			if (a.Fn == "min" && c < 0) || (a.Fn == "max" && c > 0) {
				best = v
			}
		}
		if first {
			return mmvalue.Null
		}
		return best
	}
	return mmvalue.Null
}

// DB is a named catalog of tables sharing one transaction manager.
type DB struct {
	mgr    *txn.Manager
	tables map[string]*Table
}

// NewDB creates an empty relational database on mgr.
func NewDB(mgr *txn.Manager) *DB {
	return &DB{mgr: mgr, tables: make(map[string]*Table)}
}

// CreateTable registers a new table; the name must be unused.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("relational: table %q already exists", name)
	}
	t := NewTable(name, schema, db.mgr)
	db.tables[name] = t
	// DDL is durable too, so recovery recreates the table before its
	// rows.
	if err := db.mgr.LogDDL(func() []byte { return EncodeCreateTable(name, schema) }); err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Manager returns the shared transaction manager.
func (db *DB) Manager() *txn.Manager { return db.mgr }
