package relbe

import (
	"fmt"

	"udbench/internal/convert"
	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/udbms"
)

// The loader shreds the multi-model dataset into flat relational
// tables — the conversion a one-model system must do to sit behind the
// same workload:
//
//   - relational tables map 1:1, keeping schema, primary key and every
//     secondary index;
//   - document collections go through convert.ShredDocs, the repo's
//     document-to-relational conversion: a table per collection keyed
//     by _id, and each array-of-objects field normalized into a
//     "<coll>_<field>" child table (_parent, _idx, subfields) indexed
//     on _parent;
//   - the key-value store becomes one "kv" table keyed by _id (the
//     key), with the fields of object values as columns and any other
//     value under "v";
//   - graph and XML have no relational shredding the query subset
//     needs, so they are skipped — exactly why the backend's capability
//     descriptor excludes the graph/XML queries.
//
// Rows are inserted in store key order, so per-group float sums over a
// table scan accumulate in the same order as the native engines' map
// accumulation over Find/Scan — the agreement tests compare exact
// cardinalities on the back of that.

// load materializes ds in a scratch unified store and shreds it into
// db. A dataset without key-value entries leaves no kv table behind;
// the queries treat it as empty, like the native engines do over an
// empty store.
func load(ds *datagen.Dataset, db *relational.DB) error {
	scratch := udbms.Open()
	if err := ds.Load(scratch.Stores()); err != nil {
		return fmt.Errorf("relbe: load dataset: %w", err)
	}
	for _, name := range scratch.Relational.TableNames() {
		src, _ := scratch.Relational.Table(name)
		if err := createTable(db, name, src.Schema(), src.Query(nil).Rows(), src.IndexedColumns()); err != nil {
			return err
		}
	}
	for _, name := range scratch.Docs.CollectionNames() {
		coll := scratch.Docs.Collection(name)
		if err := shred(db, name, coll.Find(nil, nil), coll.IndexPaths()); err != nil {
			return err
		}
	}
	var entries []mmvalue.Value
	scratch.KV.Scan(nil, "", "", func(k string, v mmvalue.Value) bool {
		doc := mmvalue.ObjectOf("v", v)
		if obj, ok := v.AsObject(); ok {
			doc = mmvalue.FromObject(obj.ShallowClone())
		}
		doc.MustObject().Set("_id", mmvalue.String(k))
		entries = append(entries, doc)
		return true
	})
	return shred(db, "kv", entries, nil)
}

// shred converts docs (key order) to a parent table plus child tables
// and loads them. Index paths that became columns keep their index.
func shred(db *relational.DB, name string, docs []mmvalue.Value, indexPaths []string) error {
	if len(docs) == 0 {
		return nil // no documents to infer a schema from
	}
	sr, err := convert.ShredDocs(name, docs)
	if err != nil {
		return fmt.Errorf("relbe: %w", err)
	}
	if err := createTable(db, name, nullable(sr.Parent.Schema), sr.Parent.Rows, indexPaths); err != nil {
		return err
	}
	for _, child := range sr.Children {
		if err := createTable(db, child.Name, nullable(child.Schema), child.Rows, []string{"_parent"}); err != nil {
			return err
		}
	}
	return nil
}

// nullable relaxes an inferred schema: the document and key-value
// models have no required fields, so a column every loaded document
// happened to carry must not reject a runtime insert that lacks it.
func nullable(s relational.Schema) relational.Schema {
	cols := append([]relational.Column(nil), s.Columns...)
	for i := range cols {
		cols[i].Nullable = cols[i].Name != s.PrimaryKey
	}
	return relational.Schema{Columns: cols, PrimaryKey: s.PrimaryKey}
}

func createTable(db *relational.DB, name string, schema relational.Schema, rows []mmvalue.Value, indexed []string) error {
	t, err := db.CreateTable(name, schema)
	if err != nil {
		return fmt.Errorf("relbe: %w", err)
	}
	if err := t.Manager().Bulk(len(rows), func(tx *txn.Tx, i int) error {
		return t.Insert(tx, rows[i])
	}); err != nil {
		return fmt.Errorf("relbe: %w", err)
	}
	for _, col := range indexed {
		if _, ok := schema.Column(col); !ok {
			continue // a nested or non-scalar index path has no column
		}
		if err := t.CreateIndex(col); err != nil {
			return fmt.Errorf("relbe: %w", err)
		}
	}
	return nil
}
