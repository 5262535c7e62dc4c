package udbms

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"udbench/internal/document"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
)

// Property test: the hash-join pipeline (all strategies — hash build,
// index fallback, PK probes) returns exactly the result sets of the
// old per-row nested-loop probes, across random datasets that include
// null keys, missing paths, cross-kind (Int/Float) key matches and
// duplicate keys.

// randKey returns a join key value drawn from a small, collision-rich
// domain mixing kinds: ints, int-valued floats (Equal to the ints),
// strings, nulls and a marker for "leave the field out".
func randKey(rng *rand.Rand) (v mmvalue.Value, omit bool) {
	switch rng.Intn(10) {
	case 0:
		return mmvalue.Null, false
	case 1:
		return mmvalue.Value{}, true // omit the field entirely
	case 2, 3:
		return mmvalue.Float(float64(rng.Intn(6))), false
	case 4:
		return mmvalue.String(fmt.Sprintf("k%d", rng.Intn(6))), false
	default:
		return mmvalue.Int(int64(rng.Intn(6))), false
	}
}

// seedJoinDB builds a probe collection, a build collection (join key
// at the nested path "ref.cid") and a build table (join key in column
// "cid") from the rng.
func seedJoinDB(t *testing.T, rng *rand.Rand, nProbe, nBuild int, docIndex, relIndex bool) *DB {
	t.Helper()
	db := Open()
	probe := db.Docs.Collection("probe")
	for i := 0; i < nProbe; i++ {
		o := mmvalue.NewObject()
		o.Set("_id", mmvalue.String(fmt.Sprintf("p%04d", i)))
		if v, omit := randKey(rng); !omit {
			o.Set("cid", v)
		}
		o.Set("n", mmvalue.Int(int64(i)))
		if err := probe.Insert(nil, mmvalue.FromObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	build := db.Docs.Collection("build")
	for i := 0; i < nBuild; i++ {
		o := mmvalue.NewObject()
		o.Set("_id", mmvalue.String(fmt.Sprintf("b%04d", i)))
		if v, omit := randKey(rng); !omit {
			ref := mmvalue.NewObject()
			ref.Set("cid", v)
			o.Set("ref", mmvalue.FromObject(ref))
		}
		o.Set("payload", mmvalue.String(fmt.Sprintf("v%d", rng.Intn(100))))
		if err := build.Insert(nil, mmvalue.FromObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	if docIndex {
		if err := build.CreateIndex("ref.cid"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.Relational.CreateTable("buildtab", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "cid", Type: relational.TypeFloat, Nullable: true},
		relational.Column{Name: "tag", Type: relational.TypeString, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nBuild; i++ {
		o := mmvalue.NewObject()
		o.Set("id", mmvalue.Int(int64(i)))
		if v, omit := randKey(rng); !omit && v.Kind() != mmvalue.KindString {
			o.Set("cid", v)
		}
		o.Set("tag", mmvalue.String(fmt.Sprintf("t%d", rng.Intn(10))))
		if err := tbl.Insert(nil, mmvalue.FromObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	if relIndex {
		if err := tbl.CreateIndex("cid"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// refJoinDocuments is the old nested-loop semantics: one probe query
// per row through Collection.Find.
func refJoinDocuments(db *DB, rows []mmvalue.Value, collection, rowField, docPath, asField string) []mmvalue.Value {
	coll := db.Docs.Collection(collection)
	for _, r := range rows {
		obj := r.MustObject()
		key := obj.GetOr(rowField, mmvalue.Null)
		var matches []mmvalue.Value
		if !key.IsNull() {
			matches = coll.Find(nil, document.Eq(docPath, key))
		}
		obj.Set(asField, mmvalue.Array(matches...))
	}
	return rows
}

// refJoinRelational mirrors the old per-row relational probe.
func refJoinRelational(db *DB, rows []mmvalue.Value, table, rowField, column, asField string) []mmvalue.Value {
	tbl, _ := db.Relational.Table(table)
	for _, r := range rows {
		obj := r.MustObject()
		key := obj.GetOr(rowField, mmvalue.Null)
		var matches []mmvalue.Value
		if !key.IsNull() {
			matches = tbl.Query(nil).Where(relational.Col(column).Eq(key)).Rows()
		}
		obj.Set(asField, mmvalue.Array(matches...))
	}
	return rows
}

// canon renders rows order-insensitively: each row becomes its string
// form (with any match array internally sorted), then rows are sorted.
func canon(t *testing.T, rows []mmvalue.Value, asField string) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		obj := r.MustObject()
		arr, ok := obj.GetOr(asField, mmvalue.Null).AsArray()
		if !ok {
			t.Fatalf("row %d missing match array %q: %s", i, asField, r)
		}
		parts := make([]string, len(arr))
		for j, m := range arr {
			parts[j] = m.String()
		}
		sort.Strings(parts)
		keys := obj.GetOr("cid", mmvalue.Null)
		out[i] = fmt.Sprintf("%s|%s|%v", obj.GetOr("_id", obj.GetOr("id", mmvalue.Null)), keys, parts)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, got, want []mmvalue.Value, asField string) {
	t.Helper()
	g, w := canon(t, got, asField), canon(t, want, asField)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: row %d:\n got  %s\n want %s", label, i, g[i], w[i])
		}
	}
}

func TestJoinEquivalenceProperty(t *testing.T) {
	cases := []struct {
		nProbe, nBuild   int
		docIndex, relIdx bool
	}{
		{3, 60, true, true},     // small probe side: index-probe strategy
		{3, 60, false, false},   // small probe side, no index: hash build
		{200, 40, true, true},   // large probe side: hash despite index
		{200, 40, false, false}, // large probe side, no index
		{0, 20, true, false},    // empty probe side
		{20, 0, false, false},   // empty build side
	}
	for ci, tc := range cases {
		for seed := int64(0); seed < 5; seed++ {
			label := fmt.Sprintf("case%d/seed%d", ci, seed)
			db := seedJoinDB(t, rand.New(rand.NewSource(seed*31+int64(ci))), tc.nProbe, tc.nBuild, tc.docIndex, tc.relIdx)

			// Documents ⋈ documents, nested key path.
			got, err := db.Pipeline(nil).
				FromDocuments("probe", nil).
				JoinDocuments("build", "cid", "ref.cid", "m").
				Rows()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := refJoinDocuments(db, db.Docs.Collection("probe").Find(nil, nil), "build", "cid", "ref.cid", "m")
			sameRows(t, label+"/docs", got, want, "m")

			// Documents ⋈ relational, plain column.
			got, err = db.Pipeline(nil).
				FromDocuments("probe", nil).
				JoinRelational("buildtab", "cid", "cid", "m").
				Rows()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want = refJoinRelational(db, db.Docs.Collection("probe").Find(nil, nil), "buildtab", "cid", "cid", "m")
			sameRows(t, label+"/rel", got, want, "m")

			// Documents ⋈ relational on the primary key (point probes).
			got, err = db.Pipeline(nil).
				FromDocuments("probe", nil).
				JoinRelational("buildtab", "n", "id", "m").
				Rows()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want = refJoinRelational(db, db.Docs.Collection("probe").Find(nil, nil), "buildtab", "n", "id", "m")
			sameRows(t, label+"/relpk", got, want, "m")
		}
	}
}

// TestJoinRelationalPKCrossKind pins the primary-key probe path for
// Compare-equal keys of different kinds: a Float(2.0) probe key must
// find the row whose Int primary key is 2, exactly like the scan and
// hash strategies do.
func TestJoinRelationalPKCrossKind(t *testing.T) {
	db := Open()
	tbl, err := db.Relational.CreateTable("t", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := tbl.Insert(nil, mmvalue.ObjectOf("id", i, "name", fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	probe := db.Docs.Collection("pkprobe")
	for i, key := range []mmvalue.Value{
		mmvalue.Float(2.0), mmvalue.Int(3), mmvalue.Float(2.5),
	} {
		if err := probe.Insert(nil, mmvalue.ObjectOf("_id", fmt.Sprintf("d%d", i), "cid", key)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 probe rows stay under the adaptive threshold, so this takes
	// the per-row PK probe path.
	rows, err := db.Pipeline(nil).
		FromDocuments("pkprobe", nil).
		JoinRelational("t", "cid", "id", "m").
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	wantMatches := map[string]int{"d0": 1, "d1": 1, "d2": 0}
	for _, r := range rows {
		obj := r.MustObject()
		id, _ := obj.Get("_id")
		arr, _ := obj.GetOr("m", mmvalue.Null).AsArray()
		if len(arr) != wantMatches[id.MustString()] {
			t.Errorf("row %s: %d matches, want %d", id.MustString(), len(arr), wantMatches[id.MustString()])
		}
	}
}

// TestSelfJoinNoDeadlock pins the flush-time build: joining a
// collection with itself scans it twice sequentially, never nested.
func TestSelfJoinNoDeadlock(t *testing.T) {
	db := Open()
	coll := db.Docs.Collection("c")
	for i := 0; i < 50; i++ {
		if err := coll.Insert(nil, mmvalue.ObjectOf(
			"_id", fmt.Sprintf("x%03d", i), "k", int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := db.Pipeline(nil).
		FromDocuments("c", nil).
		JoinDocuments("c", "k", "k", "same").
		Each(func(r mmvalue.Value) bool {
			arr, _ := r.MustObject().GetOr("same", mmvalue.Null).AsArray()
			n += len(arr)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50*10 {
		t.Errorf("self join matched %d pairs, want 500", n)
	}
}
