package udbms

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"udbench/internal/mmvalue"
)

// This file holds the vectorized operator implementations: every stage
// consumes and produces a batch of rows per call, so there is one
// interface dispatch per batch, not per row. Sort buffers its rows with
// their keys and orders positions; the equality join buffers its probe
// rows and attaches matches on flush; group-by buffers the values it
// reads as a column projection and folds them (groupSink.fold).

// batchSink consumes a batch stream. push reports false to stop the
// upstream producer early (limit short-circuit); flush signals
// end-of-input so blocking stages (sort, join, group-by) can drain.
type batchSink interface {
	push(rows []mmvalue.Value) bool
	flush()
}

// rowSink adapts a per-row terminal callback to the batch protocol.
type rowSink struct {
	fn func(mmvalue.Value) bool
}

func (s *rowSink) push(rows []mmvalue.Value) bool {
	for _, r := range rows {
		if !s.fn(r) {
			return false
		}
	}
	return true
}

func (s *rowSink) flush() {}

// ---- limit ----

type limitStage struct {
	n int
}

func (st *limitStage) retains() bool { return false }

func (st *limitStage) wire(_ bool, down batchSink) batchSink {
	if st.n < 0 {
		return down
	}
	return &limitSink{remaining: st.n, down: down}
}

type limitSink struct {
	remaining int
	down      batchSink
}

func (s *limitSink) push(rows []mmvalue.Value) bool {
	if s.remaining <= 0 {
		return false
	}
	rows = rows[:min(len(rows), s.remaining)]
	s.remaining -= len(rows)
	return s.down.push(rows) && s.remaining > 0
}

func (s *limitSink) flush() { s.down.flush() }

// ---- where ----

// whereStage keeps the rows whose value at path is a member of set, the
// Equal-set of vals (Pipeline.Where). The projected path codes vals
// instead (runProjected).
type whereStage struct {
	path mmvalue.Path
	vals []mmvalue.Value
	set  mmvalue.Set
}

func (st *whereStage) retains() bool { return false }

func (st *whereStage) wire(_ bool, down batchSink) batchSink { return &whereSink{st: st, down: down} }

type whereSink struct {
	st   *whereStage
	down batchSink
	rb   *rowBuf // pooled; its rows are the written prefix, kept rows first
}

func (s *whereSink) push(rows []mmvalue.Value) bool {
	if s.rb == nil {
		s.rb = getRowBuf(batchCap)
	}
	kept := s.rb.rows[:0]
	for _, r := range rows {
		if v := s.st.path.LookupOr(r, mmvalue.Null); !v.IsNull() && s.st.set.Has(v) {
			kept = append(kept, r)
		}
	}
	s.rb.rows = kept[:max(len(s.rb.rows), len(kept))]
	return len(kept) == 0 || s.down.push(kept)
}

func (s *whereSink) flush() {
	s.down.flush()
	if s.rb != nil {
		putRowBuf(s.rb, s.rb.rows)
		s.rb = nil
	}
}

// ---- sort ----

// sortStage is a blocking operator: it buffers the input rows together
// with their sort keys, then re-streams in order on flush. Rows stay
// shared — sorting reorders references only.
type sortStage struct {
	path mmvalue.Path
	desc bool
}

func (st *sortStage) retains() bool { return true }

func (st *sortStage) wire(_ bool, down batchSink) batchSink {
	return &sortSink{st: st, down: down, rows: getRowBuf(batchCap), keys: getRowBuf(batchCap)}
}

type sortSink struct {
	st   *sortStage
	down batchSink
	// rows holds the buffered rows and keys their sort keys, both in
	// pooled buffers that flush hands back.
	rows, keys *rowBuf
}

func (s *sortSink) push(rows []mmvalue.Value) bool {
	for _, r := range rows {
		s.rows.rows = append(s.rows.rows, r)
		s.keys.rows = append(s.keys.rows, s.st.path.LookupOr(r, mmvalue.Null))
	}
	return true
}

func (s *sortSink) flush() {
	rows := s.rows.rows
	defer func() {
		putRowBuf(s.rows, rows)
		putRowBuf(s.keys, s.keys.rows)
	}()
	perm := order(s.keys.rows, s.st.desc)
	out := make([]mmvalue.Value, 0, min(len(rows), batchCap))
	for _, i := range perm {
		out = append(out, rows[i])
		if len(out) == batchCap {
			if !s.down.push(out) {
				s.down.flush()
				return
			}
			out = out[:0]
		}
	}
	if len(out) > 0 {
		s.down.push(out)
	}
	s.down.flush()
}

// ---- attach machinery (joins) ----

// attachCap bounds the attacher's output batch. Every row of a pushed
// batch is alive at once, so the scratch ring must hold one object per
// batch position: a full 1024-row batch would mean ~1024 scratch
// objects allocated per query, which dwarfs small and mid-size joins
// (GC time, not dispatch, dominates them). 64 rows still amortizes the
// per-batch interface call to noise while keeping the warm-up cost of
// the ring negligible.
const attachCap = 64

// attachScratch is an attacher's pooled working memory: the output
// batch backing plus the scratch-object ring. Warming a fresh ring —
// 64 objects, each growing a keys and a vals array — costs on the
// order of 100KB of allocation, which dwarfed everything else in
// mid-size join queries; the pool amortizes it across queries. Ring
// objects keep their field storage between queries (that is the
// point); the written prefix of out is cleared on release so pooled
// slots never pin rows.
type attachScratch struct {
	objs []*mmvalue.Object
	out  []mmvalue.Value
}

var attachScratchPool = sync.Pool{New: func() any {
	return &attachScratch{out: make([]mmvalue.Value, 0, attachCap)}
}}

// attacher builds output batches for the attaching stages (equality join,
// per-row joins, Unnest): it lands a value under asField in a copy of
// each row, never in the row it is pushed. When downstream consumes
// rows transiently the copy is a scratch object from a ring — one per
// batch position, reused across batches, zero allocations in steady
// state — and otherwise a shallow clone.
type attacher struct {
	down      batchSink
	asField   string
	transient bool
	scr       *attachScratch
	out       []mmvalue.Value
	used      int // most rows out has held: the prefix release clears
	stopped   bool
}

func newAttacher(down batchSink, asField string, transient bool) *attacher {
	scr := attachScratchPool.Get().(*attachScratch)
	return &attacher{down: down, asField: asField, transient: transient, scr: scr, out: scr.out}
}

// release returns the scratch to the pool. Callers invoke it after the
// final emit: output rows are consumed synchronously by the downstream
// push, so recycling cannot alias live rows.
func (a *attacher) release() {
	if a.scr == nil {
		return
	}
	out := a.out[:max(a.used, len(a.out))]
	clear(out)
	a.scr.out = out[:0]
	attachScratchPool.Put(a.scr)
	a.scr = nil
	a.out = nil
}

// attach emits r with its matches under asField.
func (a *attacher) attach(r mmvalue.Value, matches []mmvalue.Value) bool {
	return a.attachValue(r, mmvalue.Array(matches...))
}

// attachValue emits a copy of r with v under asField.
func (a *attacher) attachValue(r, v mmvalue.Value) bool {
	var obj *mmvalue.Object
	if a.transient {
		if len(a.scr.objs) == len(a.out) {
			a.scr.objs = append(a.scr.objs, mmvalue.NewObject())
		}
		obj = a.scr.objs[len(a.out)]
		obj.CopyFrom(r.MustObject())
	} else {
		obj = r.MustObject().ShallowClone()
	}
	obj.Set(a.asField, v)
	a.out = append(a.out, mmvalue.FromObject(obj))
	if len(a.out) == attachCap {
		return a.emit()
	}
	return true
}

// emit pushes the pending output batch downstream.
func (a *attacher) emit() bool {
	if len(a.out) == 0 {
		return !a.stopped
	}
	a.used = max(a.used, len(a.out))
	ok := a.down.push(a.out)
	a.out = a.out[:0]
	if !ok {
		a.stopped = true
	}
	return ok
}

// ---- equality join ----

// joinSpec abstracts the build side of an equality join (document
// collection, relational table or the XML store) and the two ways to
// reach it: per-key index probes (rent) or one scan into a projection
// onto [keyPath, whole row] whose rows are grouped by key (buy).
type joinSpec struct {
	// rowField is the flat field of the pipeline row holding the key.
	rowField string
	// asField receives the match array.
	asField string
	// storeScan reads the build side; keyPath locates a build row's key.
	storeScan
	keyPath mmvalue.Path
	// indexProbe streams the matches for one key through a store index;
	// nil when the build side has no usable index.
	indexProbe func(key mmvalue.Value, fn func(mmvalue.Value) bool)
	// probeBelow is the number of probe rows that cost as much as one
	// scan (see Pipeline.probeBelow).
	probeBelow int
	// cache is the owning DB's join cache and key this build side's
	// entry in it; cache is nil under PipelineOver.
	cache *joinCache
	key   joinCacheKey
}

// route picks how n buffered probe rows find their matches and returns
// the build rows by key to look them up in, or nil for per-key index
// probes. In order: a valid cached projection; else, against an indexed
// build side, index probes while the side's probe account — n included
// — stays under probeBelow; else one scan under the pipeline's own
// snapshot, offered to the cache (joincache.go). Without a cache
// (PipelineOver) the account is just n: k probes cost k requests, one
// scan costs one.
func (s *joinSpec) route(n int) *matches {
	rent := func(ver uint64) bool { return s.indexProbe != nil && s.cache.rent(s.key, ver, n, s.probeBelow) }
	if proj := s.cache.project(s.key, s.storeScan, []mmvalue.Path{s.keyPath, nil}, nil, rent); proj != nil {
		return proj.byKey()
	}
	return nil
}

// hashJoinStage joins the batch stream against a build side. It is a
// blocking operator: probe rows are buffered until the input ends, so
// the route (joinSpec.route) is picked from the exact probe count, and
// the build rows are looked up in one tight loop. Deferring the
// build-side scan to flush also guarantees it never nests inside the
// still-open seed scan, so self-joins cannot deadlock on the store's
// scan lock.
type hashJoinStage struct {
	spec joinSpec
}

// The adaptive strategy buffers probe rows before deciding.
func (st *hashJoinStage) retains() bool { return true }

func (st *hashJoinStage) wire(transient bool, down batchSink) batchSink {
	return &joinSink{spec: st.spec, at: newAttacher(down, st.spec.asField, transient)}
}

type joinSink struct {
	spec joinSpec
	at   *attacher
	rb   *rowBuf // pooled probe-row buffer
}

func (j *joinSink) push(rows []mmvalue.Value) bool {
	if j.at.stopped {
		return false
	}
	if j.rb == nil {
		j.rb = getRowBuf(batchCap)
	}
	j.rb.rows = append(j.rb.rows, rows...)
	return true
}

// flush routes the buffered probe rows once (rent-then-buy, see
// joinSpec.route) and attaches each row's matches: from the build rows
// by key when the route bought or found them, else from one index probe
// per non-null key, collected in a pooled buffer and copied out once at
// their exact size. The build side is scanned at most once per flush.
func (j *joinSink) flush() {
	if !j.at.stopped && j.rb != nil && len(j.rb.rows) > 0 {
		built := j.spec.route(len(j.rb.rows))
		var probed *rowBuf
		var collect func(mmvalue.Value) bool
		if built == nil {
			probed = getRowBuf(0)
			collect = func(row mmvalue.Value) bool { probed.rows = append(probed.rows, row); return true }
		}
		for _, r := range j.rb.rows {
			key := r.MustObject().GetOr(j.spec.rowField, mmvalue.Null)
			var matches []mmvalue.Value
			switch {
			case key.IsNull():
			case built != nil:
				matches = built.get(key)
			default:
				j.spec.indexProbe(key, collect)
				if len(probed.rows) > 0 {
					matches = slices.Clone(probed.rows)
					clear(probed.rows)
					probed.rows = probed.rows[:0]
				}
			}
			if !j.at.attach(r, matches) {
				break
			}
		}
		if probed != nil {
			putRowBuf(probed, probed.rows)
		}
	}
	if j.rb != nil {
		putRowBuf(j.rb, j.rb.rows)
		j.rb = nil
	}
	if !j.at.stopped {
		j.at.emit()
	}
	j.at.down.flush()
	j.at.release()
}

// ---- per-row probe joins ----

// perRowStage is the probe-only join (the key-value prefix join): each
// row triggers one bounded store lookup, and the fetched values are
// attached under asField, or with unnest (Pipeline.Unnest) each one
// under asField in a row of its own. Output rows accumulate into batches.
type perRowStage struct {
	// fetch returns the values to attach for the row; they may alias
	// store memory.
	fetch   func(row mmvalue.Value) []mmvalue.Value
	asField string
	unnest  bool
	path    mmvalue.Path // the array Unnest reads
}

func (st *perRowStage) retains() bool { return false }

func (st *perRowStage) wire(transient bool, down batchSink) batchSink {
	return &perRowSink{perRowStage: st, at: newAttacher(down, st.asField, transient)}
}

type perRowSink struct {
	*perRowStage
	at *attacher
}

func (s *perRowSink) push(rows []mmvalue.Value) bool {
	if s.at.stopped {
		return false
	}
	for _, r := range rows {
		vals := s.fetch(r)
		if !s.unnest {
			if !s.at.attach(r, vals) {
				return false
			}
			continue
		}
		for _, v := range vals {
			if !s.at.attachValue(r, v) {
				return false
			}
		}
	}
	return true
}

func (s *perRowSink) flush() {
	s.at.emit()
	s.at.down.flush()
	s.at.release()
}

// ---- group-by / aggregate ----

type aggKind uint8

const (
	aggSum aggKind = iota
	aggCount
	aggMax
	aggAvg
)

// Agg is one aggregate computed per group by Pipeline.GroupBy; build
// with Sum, Count, Max or Avg.
type Agg struct {
	kind aggKind
	path mmvalue.Path
	as   string
}

// Sum totals the numeric values at path per group (non-numeric and
// missing values are skipped); the result is always a float field.
func Sum(path, as string) Agg { return Agg{kind: aggSum, path: mmvalue.ParsePath(path), as: as} }

// Count counts the rows of each group.
func Count(as string) Agg { return Agg{kind: aggCount, as: as} }

// Max keeps the largest non-null value at path per group
// (mmvalue.Compare order); null when the group has none.
func Max(path, as string) Agg { return Agg{kind: aggMax, path: mmvalue.ParsePath(path), as: as} }

// Avg is Sum divided by the count of numeric values at path; null when
// the group has none.
func Avg(path, as string) Agg { return Agg{kind: aggAvg, path: mmvalue.ParsePath(path), as: as} }

// groupStage is the blocking aggregation behind Pipeline.GroupBy: it
// projects the values its paths read from its input and, on flush,
// folds them (groupSink.fold) into one row per group, streamed out in
// ascending key order, so results are deterministic: a scratch row, or
// owned copies for a downstream that retains rows (groupSink.emit).
type groupStage struct {
	key   mmvalue.Path
	asKey string
	aggs  []Agg
	// top, when set, is a SortBy on aggregate topAgg that a Limit(topN)
	// follows (Pipeline.Limit): flush builds only the rows they keep.
	top          *sortStage
	topN, topAgg int
}

// The stage keeps the values its paths read, which upstream never
// recycles; only the whole row (the empty path) may be a scratch row.
func (st *groupStage) retains() bool {
	return len(st.key) == 0 || slices.ContainsFunc(st.aggs, func(a Agg) bool { return a.kind != aggCount && len(a.path) == 0 })
}

func (st *groupStage) wire(transient bool, down batchSink) batchSink {
	pl := &projPlan{paths: make([][]mmvalue.Path, 1)}
	pl.group(st)
	return &groupSink{st: st, down: down, transient: transient, pl: pl, proj: sized(pl.paths[0], 0)}
}

// groupSink is a GroupBy's sink. On rows, pl is a one-scan plan over
// the columns the stage reads and proj their values in the pushed rows.
// fold leaves the groups in foldScratch, by their codes in keys.
type groupSink struct {
	st        *groupStage
	down      batchSink
	transient bool
	pl        *projPlan
	proj      *projection
	keys      *dict
	*foldScratch
}

func (g *groupSink) push(rows []mmvalue.Value) bool {
	for _, r := range rows {
		g.proj.add(r, nil)
	}
	return true
}

func (g *groupSink) flush() { g.fold(g.pl, []*projection{g.proj}) }

// aggCols is one Sum, Avg or Max over col, per group code: the sum
// and count of numbers, or the winner's row plus one (0: none yet).
type aggCols struct {
	col  *column
	sum  []float64
	n    []int64
	best []int32
}

// fold runs the aggregate over col's values at rows, adding row i's to
// group codes[i] of n, by a loop chosen once by the column's kind. A
// column of values takes the boxed loop, which is the reference for the
// typed ones.
func (a *aggCols) fold(kind aggKind, col *column, n int, codes, rows []int32) {
	a.col = col
	if kind == aggSum || kind == aggAvg {
		a.sum, a.n = zeroed(a.sum, n), zeroed(a.n, n)
		switch {
		case col.vals != nil:
			for i, r := range rows {
				if f, ok := col.value(int(r)).AsFloat(); ok {
					a.sum[codes[i]] += f
					a.n[codes[i]]++
				}
			}
		case col.kind == mmvalue.KindInt:
			sumOf(a, codes, rows, col.valid, col.ints)
		case col.kind == mmvalue.KindFloat:
			sumOf(a, codes, rows, col.valid, col.floats)
		} // strings, or no values: no numbers
		return
	}
	a.best = zeroed(a.best, n) // Max keeps a value above its group's winner
	switch {
	case col.vals != nil:
		for i, r := range rows {
			v, b := col.value(int(r)), a.best[codes[i]]
			if !v.IsNull() && (b == 0 || mmvalue.Compare(v, col.value(int(b-1))) > 0) {
				a.best[codes[i]] = r + 1
			}
		}
	case col.kind == mmvalue.KindInt:
		bestOf(a.best, codes, rows, col.valid, col.ints)
	case col.kind == mmvalue.KindFloat:
		bestOf(a.best, codes, rows, col.valid, col.floats)
	case col.kind == mmvalue.KindString:
		bestOf(a.best, codes, rows, col.valid, col.strs)
	}
}

// sumOf is Sum and Avg over a typed number vector.
func sumOf[T int64 | float64](a *aggCols, codes, rows []int32, valid []uint64, xs []T) {
	for i, r := range rows {
		if r >= 0 && valid[r/64]&(1<<(r%64)) != 0 {
			a.sum[codes[i]] += float64(xs[r])
			a.n[codes[i]]++
		}
	}
}

// bestOf is Max over a typed vector. cmp.Compare orders NaN first and
// -0 equal to 0, as mmvalue.Compare does.
func bestOf[T cmp.Ordered](best []int32, codes, rows []int32, valid []uint64, xs []T) {
	for i, r := range rows {
		if r >= 0 && valid[r/64]&(1<<(r%64)) != 0 {
			if b := best[codes[i]]; b == 0 || cmp.Compare(xs[r], xs[b-1]) > 0 {
				best[codes[i]] = r + 1
			}
		}
	}
}

// value is aggregate k's output field in group c's row; a Max winner
// is the projection's, not owned.
func (g *groupSink) value(c int32, k int) mmvalue.Value {
	switch g.st.aggs[k].kind {
	case aggCount:
		return mmvalue.Int(g.count[c])
	case aggMax:
		return g.aggs[k].col.value(int(g.aggs[k].best[c]) - 1)
	}
	if f, ok := g.num(c, k); ok {
		return mmvalue.Float(f)
	}
	return mmvalue.Null
}

// num is a Count, Sum or Avg in group c as a number; false for an Avg
// over no numbers, which is null.
func (g *groupSink) num(c int32, k int) (float64, bool) {
	a := &g.aggs[k]
	switch g.st.aggs[k].kind {
	case aggCount:
		return float64(g.count[c]), true
	case aggSum:
		return a.sum[c], true
	}
	return a.sum[c] / float64(a.n[c]), a.n[c] > 0
}

// order returns the group codes to emit: all of them by ascending key,
// or with top set (and fewer than all kept) the first topN in the top
// SortBy's order, ties by ascending key, kept by a bounded insertion.
// Keys and aggregates compare unboxed. Groups that hold a key code in 32
// or more are read off the ranked codes, unless keys tie (dict.ranked);
// others are sorted stably, equal keys in order of first appearance.
func (g *groupSink) order() []int32 {
	if n, k := g.st.topN, g.st.topAgg; g.st.top != nil && n < len(g.groups) {
		w := &g.aggs[k]
		compare := func(a, b int32) int { return w.col.compare(int(w.best[a])-1, int(w.best[b])-1) }
		var score []float64 // per code, a Count's, Sum's or Avg's number; an Avg over no numbers, null, is 0/0
		if kind := g.st.aggs[k].kind; kind != aggMax {
			score = slices.Grow(g.nums[:0], len(g.count))[:len(g.count)]
			for c := range score {
				score[c], _ = g.num(int32(c), k)
			}
			g.nums, compare = score, func(a, b int32) int {
				if c := cmp.Compare(score[a], score[b]); c != 0 || kind != aggAvg {
					return c // NaN first, as in mmvalue.Compare
				}
				return cmp.Compare(min(w.n[a], 1), min(w.n[b], 1)) // of two NaNs, a null first
			}
		}
		sign := 1
		if g.st.top.desc {
			sign = -1
		}
		before := func(a, b int32) bool {
			c := sign * compare(a, b)
			return c < 0 || c == 0 && g.keys.compare(a, b) < 0
		}
		top := make([]int32, 0, n+1)
		for _, c := range g.groups { // once top is full, a score after its last group's is out at once
			if len(top) == n && (n == 0 || score != nil && sign*cmp.Compare(score[c], score[top[n-1]]) > 0 || !before(c, top[n-1])) {
				continue
			}
			i := sort.Search(len(top), func(i int) bool { return before(c, top[i]) })
			top = slices.Insert(top, i, c)[:min(len(top)+1, n)]
		}
		return top
	}
	if 32*len(g.groups) >= len(g.keys.first) {
		if byRank, ties := g.keys.ranked(); !ties {
			g.groups = g.groups[:0]
			for _, c := range byRank {
				if g.count[c] > 0 {
					g.groups = append(g.groups, c)
				}
			}
			return g.groups
		}
	}
	slices.SortStableFunc(g.groups, g.keys.compare)
	return g.groups
}

// emit sends one row per group in order (groupSink.order) downstream
// and flushes it. Each group's fields are set in one scratch row, which
// a transient downstream is pushed alone and reads during the push; a
// retaining one gets batches of deep clones, so the rows it keeps are owned.
func (g *groupSink) emit() {
	codes := g.order()
	row := mmvalue.NewObject()
	size := 1
	if !g.transient {
		size = min(len(codes), batchCap)
	}
	out := make([]mmvalue.Value, 0, size)
	for _, c := range codes {
		row.Set(g.st.asKey, g.keys.val(int(c)))
		for k, a := range g.st.aggs {
			row.Set(a.as, g.value(c, k))
		}
		r := mmvalue.FromObject(row)
		if !g.transient {
			r = r.Clone()
		}
		if out = append(out, r); len(out) == cap(out) {
			if !g.down.push(out) {
				g.down.flush()
				return
			}
			out = out[:0]
		}
	}
	if len(out) > 0 {
		g.down.push(out)
	}
	g.down.flush()
}
