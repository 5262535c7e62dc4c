package udbms

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"udbench/internal/document"
	"udbench/internal/mmvalue"
)

// Property test: the vectorized batch executor is observationally
// identical to a row-at-a-time reference interpreter for randomized
// pipelines — seed × join × sort × limit × group-by in random order.
// The reference applies each stage's documented semantics with plain
// Go loops over materialized rows; the only tolerated difference is
// the internal order of join match arrays (strategies may emit matches
// in index vs scan order), which canonRow sorts away on both sides.

// sigOf is a pure row fingerprint that deliberately ignores join match
// arrays (their internal order is strategy-dependent); the filtered
// seed keys on it.
func sigOf(r mmvalue.Value) int {
	o := r.MustObject()
	s := o.GetOr("cid", mmvalue.Null).String() +
		o.GetOr("n", mmvalue.Null).String() +
		o.GetOr("k", mmvalue.Null).String()
	return len(s)
}

// pipeOp pairs a pipeline stage with its reference implementation.
type pipeOp struct {
	name  string
	build func(p *Pipeline) *Pipeline
	ref   func(db *DB, rows []mmvalue.Value) []mmvalue.Value
}

func refSort(rows []mmvalue.Value, path mmvalue.Path, desc bool) []mmvalue.Value {
	keys := make([]mmvalue.Value, len(rows))
	for i, r := range rows {
		keys[i] = path.LookupOr(r, mmvalue.Null)
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := keys[idx[i]], keys[idx[j]]
		if desc {
			a, b = b, a
		}
		return mmvalue.Compare(a, b) < 0
	})
	out := make([]mmvalue.Value, len(rows))
	for i, id := range idx {
		out[i] = rows[id]
	}
	return out
}

func refGroupBy(rows []mmvalue.Value, keyPath mmvalue.Path, asKey string, aggs []Agg) []mmvalue.Value {
	type racc struct {
		key   mmvalue.Value
		count int64
		st    []aggState
	}
	buckets := map[uint64][]*racc{}
	var order []*racc
	for _, r := range rows {
		key := keyPath.LookupOr(r, mmvalue.Null)
		var a *racc
		h := key.Hash()
		for _, c := range buckets[h] {
			if mmvalue.Equal(c.key, key) {
				a = c
				break
			}
		}
		if a == nil {
			a = &racc{key: key.Clone(), st: make([]aggState, len(aggs))}
			buckets[h] = append(buckets[h], a)
			order = append(order, a)
		}
		a.count++
		for k := range aggs {
			ag := &aggs[k]
			s := &a.st[k]
			switch ag.kind {
			case aggSum, aggAvg:
				if f, ok := ag.path.LookupOr(r, mmvalue.Null).AsFloat(); ok {
					s.sum += f
					s.n++
				}
			case aggMax:
				if v := ag.path.LookupOr(r, mmvalue.Null); !v.IsNull() {
					if !s.seen || mmvalue.Compare(v, s.best) > 0 {
						s.best, s.seen = v.Clone(), true
					}
				}
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return mmvalue.Compare(order[i].key, order[j].key) < 0
	})
	out := make([]mmvalue.Value, 0, len(order))
	for _, a := range order {
		obj := mmvalue.NewObject()
		obj.Set(asKey, a.key)
		for k := range aggs {
			ag := &aggs[k]
			s := a.st[k]
			switch ag.kind {
			case aggCount:
				obj.Set(ag.as, mmvalue.Int(a.count))
			case aggSum:
				obj.Set(ag.as, mmvalue.Float(s.sum))
			case aggAvg:
				if s.n > 0 {
					obj.Set(ag.as, mmvalue.Float(s.sum/float64(s.n)))
				} else {
					obj.Set(ag.as, mmvalue.Null)
				}
			case aggMax:
				if s.seen {
					obj.Set(ag.as, s.best)
				} else {
					obj.Set(ag.as, mmvalue.Null)
				}
			}
		}
		out = append(out, mmvalue.FromObject(obj))
	}
	return out
}

// sortOp sorts on path like SortBy, by refSort.
func sortOp(path string, desc bool) pipeOp {
	pp := mmvalue.ParsePath(path)
	return pipeOp{
		name:  fmt.Sprintf("sort(%s,desc=%v)", path, desc),
		build: func(p *Pipeline) *Pipeline { return p.SortBy(path, desc) },
		ref: func(_ *DB, rows []mmvalue.Value) []mmvalue.Value {
			return refSort(rows, pp, desc)
		},
	}
}

// limitOp keeps the first lim rows.
func limitOp(lim int) pipeOp {
	return pipeOp{
		name:  fmt.Sprintf("limit(%d)", lim),
		build: func(p *Pipeline) *Pipeline { return p.Limit(lim) },
		ref: func(_ *DB, rows []mmvalue.Value) []mmvalue.Value {
			if len(rows) > lim {
				rows = rows[:lim]
			}
			return rows
		},
	}
}

// randOps draws 2–5 random stages. Join attachment fields are unique
// per position ("m0", "m1", ...) and reported so canonRow can
// normalize their internal order. The sort paths include the group-by
// output fields, and draw 5 is a group-by followed by a sort on one of
// its aggregates and a limit: the plan GroupBy builds only the top N
// rows of.
func randOps(rng *rand.Rand) (ops []pipeOp, joinFields []string) {
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch draw := rng.Intn(6); draw {
		case 0: // sort
			paths := []string{"cid", "n", "payload", "ref.cid", "k", "c", "s", "av", "mn", "mx"}
			ops = append(ops, sortOp(paths[rng.Intn(len(paths))], rng.Intn(2) == 0))
		case 1: // limit
			ops = append(ops, limitOp(rng.Intn(60)))
		case 2: // join against the build collection (nested key path)
			field := fmt.Sprintf("m%d", i)
			joinFields = append(joinFields, field)
			ops = append(ops, pipeOp{
				name:  "joinDocs/" + field,
				build: func(p *Pipeline) *Pipeline { return p.JoinDocuments("build", "cid", "ref.cid", field) },
				ref: func(db *DB, rows []mmvalue.Value) []mmvalue.Value {
					return refJoinDocuments(db, rows, "build", "cid", "ref.cid", field)
				},
			})
		case 3: // join against the relational build table
			field := fmt.Sprintf("m%d", i)
			joinFields = append(joinFields, field)
			ops = append(ops, pipeOp{
				name:  "joinRel/" + field,
				build: func(p *Pipeline) *Pipeline { return p.JoinRelational("buildtab", "cid", "cid", field) },
				ref: func(db *DB, rows []mmvalue.Value) []mmvalue.Value {
					return refJoinRelational(db, rows, "buildtab", "cid", "cid", field)
				},
			})
		case 4, 5: // group-by with a random aggregate set
			keys := []string{"cid", "n"}
			keyPath := keys[rng.Intn(len(keys))]
			aggs := []Agg{Count("c")}
			if rng.Intn(2) == 0 {
				aggs = append(aggs, Sum("n", "s"))
			}
			if rng.Intn(2) == 0 {
				aggs = append(aggs, Avg("n", "av"))
			}
			if rng.Intn(2) == 0 {
				aggs = append(aggs, Max("cid", "mc"))
			}
			if rng.Intn(2) == 0 {
				aggs = append(aggs, Max("payload", "mx"))
			}
			pp := mmvalue.ParsePath(keyPath)
			ops = append(ops, pipeOp{
				name:  fmt.Sprintf("group(%s)", keyPath),
				build: func(p *Pipeline) *Pipeline { return p.GroupBy(keyPath, "k", aggs...) },
				ref: func(_ *DB, rows []mmvalue.Value) []mmvalue.Value {
					return refGroupBy(rows, pp, "k", aggs)
				},
			})
			if draw == 5 {
				ops = append(ops, sortOp(aggs[rng.Intn(len(aggs))].as, rng.Intn(2) == 0), limitOp(rng.Intn(12)))
			}
		}
	}
	return ops, joinFields
}

// canonRow renders a row with its join match arrays internally sorted.
func canonRows(rows []mmvalue.Value, joinFields []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		o := r.MustObject()
		for _, f := range joinFields {
			if arr, ok := o.GetOr(f, mmvalue.Null).AsArray(); ok && len(arr) > 1 {
				sorted := append([]mmvalue.Value(nil), arr...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a].String() < sorted[b].String() })
				o.Set(f, mmvalue.Array(sorted...))
			}
		}
		out[i] = r.String()
	}
	return out
}

func TestVectorizedPipelineEquivalence(t *testing.T) {
	seedPred := document.Func("sig%3 != 0", func(doc mmvalue.Value) bool {
		return sigOf(doc)%3 != 0
	})
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			db := seedJoinDB(t, rng,
				80+rng.Intn(120), 40+rng.Intn(40), rng.Intn(2) == 0, rng.Intn(2) == 0)
			ops, joinFields := randOps(rng)
			seedKind := rng.Intn(3)

			// Reference rows: materialize the seed, then interpret each
			// stage with plain loops.
			var refRows []mmvalue.Value
			switch seedKind {
			case 0:
				refRows = db.Docs.Collection("probe").Find(nil, nil)
			case 1:
				refRows = db.Docs.Collection("probe").Find(nil, seedPred)
			default:
				tbl, _ := db.Relational.Table("buildtab")
				refRows = tbl.Query(nil).Rows()
			}
			names := make([]string, len(ops))
			for i, op := range ops {
				refRows = op.ref(db, refRows)
				names[i] = op.name
			}
			want := canonRows(refRows, joinFields)

			p := db.Pipeline(nil)
			switch seedKind {
			case 0:
				p = p.FromDocuments("probe", nil)
			case 1:
				p = p.FromDocuments("probe", seedPred)
			default:
				p = p.FromRelational("buildtab", nil)
			}
			for _, op := range ops {
				p = op.build(p)
			}
			rows, err := p.Rows()
			if err != nil {
				t.Fatalf("seed=%d ops=%v: %v", seedKind, names, err)
			}
			got := canonRows(rows, joinFields)
			if len(got) != len(want) {
				t.Fatalf("seed=%d ops=%v: %d rows, want %d",
					seedKind, names, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed=%d ops=%v: row %d:\n got  %s\n want %s",
						seedKind, names, i, got[i], want[i])
				}
			}
		})
	}
}

// TestGroupByAggregates pins the concrete aggregate semantics: sums
// and averages skip non-numeric values, max skips nulls, missing
// keys group under null, and output rows arrive key-ascending.
func TestGroupByAggregates(t *testing.T) {
	db := Open()
	coll := db.Docs.Collection("sales")
	docs := []mmvalue.Value{
		mmvalue.ObjectOf("_id", "h1", "city", "Helsinki", "amt", 10),
		mmvalue.ObjectOf("_id", "h2", "city", "Helsinki", "amt", 20.5),
		mmvalue.ObjectOf("_id", "h3", "city", "Helsinki"), // no amt
		mmvalue.ObjectOf("_id", "t1", "city", "Turku", "amt", 5),
		mmvalue.ObjectOf("_id", "x1", "amt", 7), // no city: null group
	}
	for _, d := range docs {
		if err := coll.Insert(nil, d); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Pipeline(nil).
		FromDocuments("sales", nil).
		GroupBy("city", "city",
			Sum("amt", "s"), Count("c"), Max("amt", "mx"), Avg("amt", "av")).
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d groups, want 3: %v", len(rows), rows)
	}
	check := func(i int, key, s, c, mx, av mmvalue.Value) {
		t.Helper()
		o := rows[i].MustObject()
		for name, want := range map[string]mmvalue.Value{
			"city": key, "s": s, "c": c, "mx": mx, "av": av,
		} {
			if got := o.GetOr(name, mmvalue.String("<unset>")); !mmvalue.Equal(got, want) {
				t.Errorf("group %d field %s = %s, want %s", i, name, got, want)
			}
		}
	}
	// Null sorts before strings, so the no-city group comes first.
	check(0, mmvalue.Null, mmvalue.Float(7), mmvalue.Int(1),
		mmvalue.Int(7), mmvalue.Float(7))
	check(1, mmvalue.String("Helsinki"), mmvalue.Float(30.5), mmvalue.Int(3),
		mmvalue.Float(20.5), mmvalue.Float(15.25))
	check(2, mmvalue.String("Turku"), mmvalue.Float(5), mmvalue.Int(1),
		mmvalue.Int(5), mmvalue.Float(5))
}
