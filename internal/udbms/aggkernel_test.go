package udbms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"udbench/internal/mmvalue"
)

// aggState is one aggregate's state in a group of refGroupBy, the
// row-at-a-time reference.
type aggState struct {
	sum  float64
	n    int64
	best mmvalue.Value
	seen bool
}

// kernelKinds are the column kinds the fold picks its kernels by: one
// typed vector each for int, float (one with NaNs among its values) and
// string; values of several kinds; and no value at all.
var kernelKinds = []string{"int", "float", "nan", "string", "mixed", "null"}

// kernelValue draws a value of kind for a field, or false to leave the
// field out. Any field may be null; floats include -0.
func kernelValue(rng *rand.Rand, kind string) (mmvalue.Value, bool) {
	switch rng.Intn(8) {
	case 0:
		return mmvalue.Null, false
	case 1:
		return mmvalue.Null, true
	}
	switch kind {
	case "mixed":
		kind = []string{"int", "float", "string", "bool"}[rng.Intn(4)]
	case "nan":
		if rng.Intn(4) == 0 {
			return mmvalue.Float(math.NaN()), true
		}
		kind = "float"
	}
	switch kind {
	case "int":
		return mmvalue.Int(int64(rng.Intn(7) - 3)), true
	case "float":
		if rng.Intn(10) == 0 {
			return mmvalue.Float(math.Copysign(0, -1)), true
		}
		return mmvalue.Float(float64(rng.Intn(9)-4) / 2), true
	case "string":
		return mmvalue.String(fmt.Sprint("s", rng.Intn(5))), true
	case "bool":
		return mmvalue.Bool(rng.Intn(2) == 0), true
	}
	return mmvalue.Null, false // "null": the column holds no value
}

// kernelDB builds collection "t": each document has a group key k, a
// filter field f and one field per kernel kind, and an items array of
// elements with the same fields. The keys include 1 and 1.0, which are
// one group, NaN, strings, null and many keys of a row or two.
func kernelDB(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	keys := []mmvalue.Value{mmvalue.Int(0), mmvalue.Int(1), mmvalue.Float(1), mmvalue.Float(2.5),
		mmvalue.Float(math.NaN()), mmvalue.String("a"), mmvalue.String("b"), mmvalue.Null}
	fields := func() *mmvalue.Object {
		o := mmvalue.NewObject()
		switch rng.Intn(10) {
		case 0:
		case 1, 2, 3: // one of many small groups, some with no number
			o.Set("k", mmvalue.String(fmt.Sprint("g", rng.Intn(60))))
		default:
			o.Set("k", keys[rng.Intn(len(keys))])
		}
		o.Set("f", mmvalue.String([]string{"x", "y", "z"}[rng.Intn(3)]))
		for _, kind := range kernelKinds {
			if v, ok := kernelValue(rng, kind); ok {
				o.Set(kind, v)
			}
		}
		return o
	}
	db := Open()
	coll := db.Docs.Collection("t")
	for i := range 240 {
		doc := fields()
		doc.Set("_id", mmvalue.String(fmt.Sprintf("d%03d", i)))
		items := make([]mmvalue.Value, rng.Intn(4))
		for e := range items {
			items[e] = mmvalue.FromObject(fields())
		}
		if rng.Intn(8) > 0 {
			doc.Set("items", mmvalue.Array(items...))
		}
		if err := coll.Insert(nil, mmvalue.FromObject(doc)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// boxCached turns every column of db's cached projections into a
// vector of values, so the next run folds them with the boxed kernels.
func boxCached(db *DB) {
	var box func(p *projection)
	box = func(p *projection) {
		for c := range p.cols {
			col := &p.cols[c]
			if col.vals == nil {
				vals := make([]mmvalue.Value, p.n)
				for r := range vals {
					vals[r] = col.value(r)
				}
				col.vals, col.ints, col.floats, col.strs = vals, nil, nil, nil
			}
		}
		if p.elems != nil {
			box(p.elems)
		}
	}
	db.joins.m.Range(func(_, e any) bool {
		if ent := e.(*joinCacheEntry); ent.proj != nil {
			box(ent.proj)
		}
		return true
	})
}

// kernelRows is collection t, with unnest each item as "it" in a copy of
// its document, and with where only the rows whose where is x or y.
func kernelRows(db *DB, unnest bool, where string) []mmvalue.Value {
	var rows []mmvalue.Value
	for _, doc := range db.Docs.Collection("t").Find(nil, nil) {
		items, _ := doc.MustObject().GetOr("items", mmvalue.Null).AsArray()
		if !unnest {
			items = []mmvalue.Value{mmvalue.Null}
		}
		for _, it := range items {
			r := doc.Clone()
			if unnest {
				r.MustObject().Set("it", it)
			}
			if v := mmvalue.ParsePath(where).LookupOr(r, mmvalue.Null); where == "" || mmvalue.NewSet(mmvalue.String("x"), mmvalue.String("y")).Has(v) {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// TestAggKernelsMatchBoxedFold runs Sum, Avg, Max and Count over
// each kernel kind, with and without Unnest, with no Where, a seed-row
// Where and an element Where, and with no top-N or a top 3 by each
// aggregate. The typed kernels must emit exactly the rows, in exactly
// the order, that the boxed kernels emit over the same projections, and
// that the row-at-a-time reference computes.
func TestAggKernelsMatchBoxedFold(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		db := kernelDB(t, rand.New(rand.NewSource(seed)))
		for _, unnest := range []bool{false, true} {
			pre, wheres := "", []string{"", "f"} // no Where, and one on the seed rows
			if unnest {
				pre, wheres = "it.", append(wheres, "it.f") // and one on the elements
			}
			for _, where := range wheres {
				rows := kernelRows(db, unnest, where)
				for _, kind := range kernelKinds {
					aggs := []Agg{Sum(pre+kind, "sum"), Avg(pre+kind, "avg"), Max(pre+kind, "max"), Count("n")}
					groups := refGroupBy(rows, mmvalue.ParsePath(pre+"k"), "k", aggs)
					for top := -1; top < len(aggs); top++ {
						build := func() *Pipeline {
							p := db.Pipeline(nil).FromDocuments("t", nil)
							if unnest {
								p = p.Unnest("items", "it")
							}
							if where != "" {
								p = p.Where(where, "x", "y")
							}
							if p = p.GroupBy(pre+"k", "k", aggs...); top >= 0 {
								p = p.SortBy(aggs[top].as, top%2 == 0).Limit(3)
							}
							return p
						}
						run := func() string {
							var rows []mmvalue.Value
							if !build().runProjected(func(r mmvalue.Value) bool { rows = append(rows, r.Clone()); return true }) {
								t.Fatal("plan did not run over columns")
							}
							return fmt.Sprint(rows)
						}
						label := fmt.Sprintf("seed %d %s unnest %v where %q top %d", seed, kind, unnest, where, top)
						typed := run()
						boxCached(db)
						if boxed := run(); typed != boxed {
							t.Errorf("%s:\n typed %s\n boxed %s", label, typed, boxed)
						}
						want := groups
						if top >= 0 {
							want = refSort(groups, mmvalue.Path{aggs[top].as}, top%2 == 0)[:min(3, len(groups))]
						}
						if fmt.Sprint(want) != typed {
							t.Errorf("%s:\n typed %s\n rows  %v", label, typed, want)
						}
						db.joins.m.Clear()
					}
				}
			}
		}
	}
}
