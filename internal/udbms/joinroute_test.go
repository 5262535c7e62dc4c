package udbms

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"udbench/internal/document"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// routeDB has a probe collection of 200 documents {n: i, cid: i%100}
// and a build collection of 500 documents, five per cid, so an indexed
// build side has probeBelow(500) = 50.
func routeDB(t *testing.T, indexed bool) *DB {
	t.Helper()
	db := Open()
	probe, build := db.Docs.Collection("probe"), db.Docs.Collection("build")
	for i := 0; i < 200; i++ {
		if err := probe.Insert(nil, mmvalue.ObjectOf("_id", fmt.Sprintf("p%03d", i), "n", i, "cid", i%100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if err := build.Insert(nil, mmvalue.ObjectOf("_id", fmt.Sprintf("b%03d", i), "cid", i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if indexed {
		if err := build.CreateIndex("cid"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// firstN seeds the join with the probe documents whose n is below k.
func firstN(k int) document.Filter {
	return document.Func(fmt.Sprintf("n<%d", k), func(doc mmvalue.Value) bool {
		n, _ := doc.MustObject().GetOr("n", mmvalue.Int(-1)).AsInt()
		return n < int64(k)
	})
}

// cachedTable reports whether the build collection has a cached
// projection at its current version.
func cachedTable(db *DB) bool {
	coll := db.Docs.Collection("build")
	e, ok := db.joins.m.Load(joinCacheKey{store: coll, field: "cid"})
	if !ok {
		return false
	}
	ent := e.(*joinCacheEntry)
	return ent.proj != nil && ent.ver == coll.Version()
}

func statsDelta(after, before JoinStats) JoinStats {
	return JoinStats{
		CacheHits:    after.CacheHits - before.CacheHits,
		ProbeRows:    after.ProbeRows - before.ProbeRows,
		Builds:       after.Builds - before.Builds,
		CachedBuilds: after.CachedBuilds - before.CachedBuilds,
	}
}

// TestJoinRoute pins the rent-then-buy route of a join against the
// build collection, one JoinStats delta per join.
func TestJoinRoute(t *testing.T) {
	type step struct {
		commit bool   // commit one write to the build side first
		reader string // "" (no tx), "stale" (snapshot older than the commit) or "writer"
		rows   int    // probe rows of the join
		want   JoinStats
		cached bool // a table is cached at the build side's version afterwards
	}
	probe := func(n int) JoinStats { return JoinStats{ProbeRows: uint64(n)} }
	built := JoinStats{Builds: 1, CachedBuilds: 1}
	hit := JoinStats{CacheHits: 1}
	cases := []struct {
		name    string
		indexed bool
		steps   []step
	}{
		{"one row after a commit probes", true, []step{
			{commit: true, rows: 1, want: probe(1)},
			{commit: true, rows: 1, want: probe(1)},
		}},
		{"the account buys one build, then hits", true, []step{
			{rows: 20, want: probe(20)},
			{rows: 20, want: probe(20)},
			{rows: 20, want: built, cached: true},
			{rows: 20, want: hit, cached: true},
			{rows: 1, want: hit, cached: true},
		}},
		{"a commit resets the account", true, []step{
			{rows: 40, want: probe(40)},
			{commit: true, rows: 40, want: probe(40)},
			{rows: 10, want: built, cached: true},
			{commit: true, rows: 1, want: probe(1)},
		}},
		{"no index builds regardless", false, []step{
			{rows: 1, want: built, cached: true},
			{commit: true, rows: 1, want: built, cached: true},
			{rows: 200, want: hit, cached: true},
		}},
		{"a stale reader scans once, uncached", true, []step{
			{reader: "stale", commit: true, rows: 60, want: JoinStats{Builds: 1}},
			{reader: "stale", commit: true, rows: 1, want: probe(1)},
		}},
		{"a writer scans once, uncached", false, []step{
			{reader: "writer", rows: 60, want: JoinStats{Builds: 1}},
			{rows: 60, want: built, cached: true},
			{reader: "writer", rows: 60, want: JoinStats{Builds: 1}, cached: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := routeDB(t, tc.indexed)
			for i, st := range tc.steps {
				var tx *txn.Tx
				switch st.reader {
				case "stale":
					tx = db.Begin()
				case "writer":
					tx = db.Begin()
					if err := db.Docs.Collection("probe").Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("w%d", i), "n", 1000)); err != nil {
						t.Fatal(err)
					}
				}
				if st.commit {
					if err := db.Docs.Collection("build").SetPath(nil, "b000", "payload", mmvalue.Int(int64(i))); err != nil {
						t.Fatal(err)
					}
				}
				before := db.JoinStats()
				got, err := db.Pipeline(tx).FromDocuments("probe", firstN(st.rows)).
					JoinDocuments("build", "cid", "cid", "m").Rows()
				if err != nil {
					t.Fatal(err)
				}
				want := refJoinAt(db, tx, firstN(st.rows), "build", "cid", "cid", "m")
				sameRows(t, fmt.Sprintf("step %d", i), got, want, "m")
				if d := statsDelta(db.JoinStats(), before); d != st.want {
					t.Errorf("step %d: route %+v, want %+v", i, d, st.want)
				}
				if c := cachedTable(db); c != st.cached {
					t.Errorf("step %d: cached table = %v, want %v", i, c, st.cached)
				}
				if tx != nil {
					tx.Abort()
				}
			}
		})
	}
}

// refJoinAt is refJoinDocuments (join_equiv_test.go) with every read
// under tx — seed rows and per-row probes — so it is the reference for
// a pipeline reading the same snapshot.
func refJoinAt(db *DB, tx *txn.Tx, seed document.Filter, collection, rowField, docPath, asField string) []mmvalue.Value {
	coll := db.Docs.Collection(collection)
	rows := db.Docs.Collection("probe").Find(tx, seed)
	for _, r := range rows {
		obj := r.MustObject()
		var matches []mmvalue.Value
		if key := obj.GetOr(rowField, mmvalue.Null); !key.IsNull() {
			matches = coll.Find(tx, document.Eq(docPath, key))
		}
		obj.Set(asField, mmvalue.Array(matches...))
	}
	return rows
}

// refJoinRelAt is refJoinRelational under tx.
func refJoinRelAt(db *DB, tx *txn.Tx, seed document.Filter, table, rowField, column, asField string) []mmvalue.Value {
	tbl, _ := db.Relational.Table(table)
	rows := db.Docs.Collection("probe").Find(tx, seed)
	for _, r := range rows {
		obj := r.MustObject()
		var matches []mmvalue.Value
		if key := obj.GetOr(rowField, mmvalue.Null); !key.IsNull() {
			matches = tbl.Query(tx).Where(relational.Col(column).Eq(key)).Rows()
		}
		obj.Set(asField, mmvalue.Array(matches...))
	}
	return rows
}

// TestJoinRouteUnderWriters races two readers against a writer that
// keeps rewriting the join keys of both build sides, two rows per
// transaction. Every join a reader runs — probe, build or cache hit,
// whichever the shared probe account picks — must equal the
// row-at-a-time reference under the reader's own snapshot.
func TestJoinRouteUnderWriters(t *testing.T) {
	db := seedJoinDB(t, rand.New(rand.NewSource(7)), 120, 64, true, true)
	build := db.Docs.Collection("build")
	tbl, _ := db.Relational.Table("buildtab")
	before := db.JoinStats()

	stop := make(chan struct{})
	var writes int
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := db.RunTx(func(tx *txn.Tx) error {
				for j := 0; j < 2; j++ {
					i := rng.Intn(64)
					key, omit := randKey(rng)
					if omit {
						key = mmvalue.Null
					}
					if err := build.SetPath(tx, fmt.Sprintf("b%04d", i), "ref.cid", key); err != nil {
						return err
					}
					if key.Kind() == mmvalue.KindString {
						key = mmvalue.Null
					}
					if err := setFields(tbl, tx, i, "cid", key); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				writerErr = err
				return
			}
			writes++
		}
	}()

	joins := []struct {
		name string
		join func(*Pipeline) *Pipeline
		ref  func(*txn.Tx, document.Filter) []mmvalue.Value
	}{
		{"docs",
			func(p *Pipeline) *Pipeline { return p.JoinDocuments("build", "cid", "ref.cid", "m") },
			func(tx *txn.Tx, seed document.Filter) []mmvalue.Value {
				return refJoinAt(db, tx, seed, "build", "cid", "ref.cid", "m")
			}},
		{"rel",
			func(p *Pipeline) *Pipeline { return p.JoinRelational("buildtab", "cid", "cid", "m") },
			func(tx *txn.Tx, seed document.Filter) []mmvalue.Value {
				return refJoinRelAt(db, tx, seed, "buildtab", "cid", "cid", "m")
			}},
	}
	// Readers record every join and its reference; the comparison runs
	// on the test goroutine once they are done.
	type joinRun struct {
		label     string
		err       error
		got, want []mmvalue.Value
	}
	runs := make([][]joinRun, 2)
	var readers sync.WaitGroup
	for r := range runs {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for it := 0; it < 100; it++ {
				k := []int{1, 2, 5, 30, 120}[rng.Intn(5)]
				tx := db.Begin()
				for _, j := range joins {
					got, err := j.join(db.Pipeline(tx).FromDocuments("probe", firstN(k))).Rows()
					runs[r] = append(runs[r], joinRun{
						label: fmt.Sprintf("reader %d it %d k=%d %s", r, it, k, j.name),
						err:   err, got: got, want: j.ref(tx, firstN(k)),
					})
				}
				tx.Abort()
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for _, rs := range runs {
		for _, run := range rs {
			if run.err != nil {
				t.Fatalf("%s: %v", run.label, run.err)
			}
			sameRows(t, run.label, run.got, run.want, "m")
		}
	}
	d := statsDelta(db.JoinStats(), before)
	if writes == 0 || d.ProbeRows == 0 || d.Builds == 0 {
		t.Fatalf("writes %d, routes %+v: want commits, probes and builds", writes, d)
	}
	t.Logf("writes %d, routes %+v", writes, d)
}

// setFields writes row pk of tbl again, as tx sees it, with each
// (name, value) pair of fields set.
func setFields(tbl *relational.Table, tx *txn.Tx, pk int, fields ...any) error {
	cur, ok := tbl.Get(tx, pk)
	if !ok {
		return fmt.Errorf("%s: no row %d", tbl.Name(), pk)
	}
	next := cur.Clone()
	for i := 0; i < len(fields); i += 2 {
		next.MustObject().Set(fields[i].(string), mmvalue.From(fields[i+1]))
	}
	return tbl.ApplyPut(tx, next)
}
