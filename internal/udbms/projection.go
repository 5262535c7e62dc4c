package udbms

import (
	"fmt"
	"slices"
	"strings"

	"udbench/internal/document"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// storeScan is one document collection or relational table read under
// the pipeline's handle for its store.
type storeScan struct {
	side buildSide
	acc  Access
}

func (s storeScan) tx() *txn.Tx {
	if _, ok := s.side.(*document.Collection); ok {
		return s.acc.DocTx()
	}
	return s.acc.RelTx()
}

// stream calls fn for every row of the store as tx sees it, in scan
// order.
func (s storeScan) stream(tx *txn.Tx, fn func(mmvalue.Value) bool) {
	if c, ok := s.side.(*document.Collection); ok {
		c.Stream(tx, nil, fn)
	} else {
		s.side.(*relational.Table).Stream(tx, nil, fn)
	}
}

// column is one path's values over a projection's rows, in scan order:
// a vector of their one kind and a bitmap of the rows that have one.
type column struct {
	kind   mmvalue.Kind // KindNull until the first value
	mixed  bool         // values of two kinds, or of a kind with no vector
	valid  []uint64
	ints   []int64
	floats []float64
	strs   []string
}

// add sets row r, the next row, to v. A row without a value reads zero
// in the vector; valid tells the two apart.
func (c *column) add(r int, v mmvalue.Value) {
	if r%64 == 0 {
		c.valid = append(c.valid, 0)
	}
	switch k := v.Kind(); {
	case k == mmvalue.KindNull || c.mixed:
		return
	case c.kind != mmvalue.KindNull && k != c.kind:
		c.mixed = true
	case k == mmvalue.KindInt:
		c.ints = append(append(c.ints, make([]int64, r-len(c.ints))...), v.MustInt())
	case k == mmvalue.KindFloat:
		f, _ := v.AsFloat()
		c.floats = append(append(c.floats, make([]float64, r-len(c.floats))...), f)
	case k == mmvalue.KindString:
		c.strs = append(append(c.strs, make([]string, r-len(c.strs))...), v.MustString())
	default:
		c.mixed = true
	}
	c.kind = v.Kind()
	c.valid[r/64] |= 1 << (r % 64)
}

// value returns row r's value: null when r < 0 or the row has none.
func (c *column) value(r int) mmvalue.Value {
	switch {
	case r < 0 || c.valid[r/64]&(1<<(r%64)) == 0:
		return mmvalue.Null
	case c.kind == mmvalue.KindInt:
		return mmvalue.Int(c.ints[r])
	case c.kind == mmvalue.KindFloat:
		return mmvalue.Float(c.floats[r])
	}
	return mmvalue.String(c.strs[r])
}

// projection is one store's rows at one version, one column per
// projected path. first maps each value of the first column to 1 + the
// first row holding it: a join's build side projects its key first.
type projection struct {
	n     int
	cols  []column
	first scalarMap[int]
}

func project(s storeScan, tx *txn.Tx, paths []mmvalue.Path) *projection {
	p := &projection{cols: make([]column, len(paths)), first: scalarMap[int]{map[int64]int{}, map[string]int{}}}
	s.stream(tx, func(row mmvalue.Value) bool {
		for c, path := range paths {
			p.cols[c].add(p.n, path.LookupOr(row, mmvalue.Null))
		}
		p.n++
		return true
	})
	for r := p.n - 1; r >= 0 && !p.cols[0].mixed; r-- { // backwards: the first row holding a key wins
		p.first.set(p.cols[0].value(r), r+1)
	}
	return p
}

// scalarMap maps int and string keys to values by their typed value;
// it holds no other kind.
type scalarMap[V any] struct {
	ints map[int64]V
	strs map[string]V
}

func (m scalarMap[V]) get(k mmvalue.Value) (v V, ok bool) {
	switch k.Kind() {
	case mmvalue.KindInt:
		v, ok = m.ints[k.MustInt()]
	case mmvalue.KindString:
		v, ok = m.strs[k.MustString()]
	}
	return v, ok
}

func (m scalarMap[V]) set(k mmvalue.Value, v V) {
	switch k.Kind() {
	case mmvalue.KindInt:
		m.ints[k.MustInt()] = v
	case mmvalue.KindString:
		m.strs[k.MustString()] = v
	}
}

// project returns s's projection onto paths for the pipeline's reader:
// the join cache's, or one scan (and hop) offered to the cache.
func (p *Pipeline) project(s storeScan, paths []mmvalue.Path) *projection {
	if p.joins == nil {
		p.acc.Hop()
		return project(s, s.tx(), paths)
	}
	var cols strings.Builder
	for _, path := range paths {
		fmt.Fprintf(&cols, "%q", []string(path))
	}
	key := joinCacheKey{store: s.side, cols: cols.String()}
	ver, tx := s.side.Version(), s.tx()
	if e := p.joins.get(key, ver, tx); e != nil {
		return e.proj
	}
	p.acc.Hop()
	return p.joins.build(key, s.side, tx, func(tx *txn.Tx) *joinCacheEntry {
		return &joinCacheEntry{proj: project(s, tx, paths)}
	}).proj
}

// projPlan is a plan's projected prefix. Scan 0 is the seed and scan
// j+1 join j's build side; paths[i] are the paths projected from scan
// i, and a colRef names one of them.
type projPlan struct {
	scans  []storeScan
	paths  [][]mmvalue.Path
	joins  []*joinSpec
	probes []colRef // per join, its probe key
	key    colRef   // the GroupBy key
	aggs   []colRef // per aggregate; unused for Count
	rest   []stage  // the GroupBy and the stages after it
	bad    bool     // a path reads a match array other than at ".0."
}

type colRef struct{ scan, col int }

// projectedPlan reports, from the plan alone, whether it has the
// projected shape, and which columns it reads if so.
func (p *Pipeline) projectedPlan() (*projPlan, bool) {
	if p.src.filter != nil || p.src.where != nil {
		return nil, false
	}
	pl := &projPlan{scans: []storeScan{p.src.storeScan}, paths: make([][]mmvalue.Path, 1)}
	for i, st := range p.stages {
		switch st := st.(type) {
		case *hashJoinStage:
			pl.probes = append(pl.probes, pl.resolve(mmvalue.Path{st.spec.rowField}))
			pl.joins = append(pl.joins, &st.spec)
			pl.scans = append(pl.scans, st.spec.storeScan)
			pl.paths = append(pl.paths, []mmvalue.Path{st.spec.keyPath})
		case *groupStage:
			pl.key = pl.resolve(st.key)
			pl.aggs = make([]colRef, len(st.aggs))
			for k, a := range st.aggs {
				if a.kind != aggCount {
					pl.aggs[k] = pl.resolve(a.path)
				}
			}
			pl.rest = p.stages[i:]
			return pl, !pl.bad
		default:
			return nil, false
		}
	}
	return nil, false
}

// resolve names the column at path, appending it to its scan's paths:
// "<asField>.0.<rest>" is rest in the build rows of the last join that
// attaches asField, any other path a seed path.
func (pl *projPlan) resolve(path mmvalue.Path) colRef {
	scan, rest := 0, path
	for j := len(pl.joins) - 1; j >= 0; j-- {
		if len(path) > 0 && path[0] == pl.joins[j].asField {
			if len(path) < 3 || path[1] != "0" {
				pl.bad = true
				return colRef{}
			}
			scan, rest = j+1, path[2:]
			break
		}
	}
	pl.paths[scan] = append(pl.paths[scan], rest)
	return colRef{scan, len(pl.paths[scan]) - 1}
}

// runProjected runs a plan of the projected shape and reports true. It
// reports false, having emitted nothing, when the plan lacks the shape
// or a column it reads mixes kinds.
func (p *Pipeline) runProjected(onRow func(mmvalue.Value) bool) bool {
	pl, ok := p.projectedPlan()
	if !ok {
		return false
	}
	projs := make([]*projection, len(pl.scans))
	for i, s := range pl.scans {
		projs[i] = p.project(s, pl.paths[i])
		if slices.ContainsFunc(projs[i].cols, func(c column) bool { return c.mixed }) {
			return false
		}
	}
	// The typed index matches what Equal does only when both keys are ints
	// or both strings: Int(1) equals Float(1), and NaN equals itself.
	for j, probe := range pl.probes {
		k, bk := projs[0].cols[probe.col].kind, projs[j+1].cols[0].kind
		if k == mmvalue.KindFloat || k != bk && k != mmvalue.KindNull && bk != mmvalue.KindNull {
			return false
		}
	}
	at := make([]int, len(projs)) // at[i]: the row of scan i the seed row reads
	val := func(ref colRef) mmvalue.Value { return projs[ref.scan].cols[ref.col].value(at[ref.scan]) }
	g := wireChain(pl.rest, onRow).(*groupSink)
	// groups finds a group by its typed key rather than by hash and Equal.
	groups := scalarMap[*groupAcc]{map[int64]*groupAcc{}, map[string]*groupAcc{}}
	for r := 0; r < projs[0].n; r++ {
		at[0] = r
		for j, probe := range pl.probes {
			first, _ := projs[j+1].first.get(val(probe))
			at[j+1] = first - 1
		}
		key := val(pl.key)
		acc, ok := groups.get(key)
		if !ok {
			acc = g.acc(key)
			groups.set(key, acc)
		}
		acc.count++
		for k := range g.st.aggs {
			if a := &g.st.aggs[k]; a.kind != aggCount {
				acc.st[k].fold(a.kind, val(pl.aggs[k]))
			}
		}
	}
	g.flush()
	return true
}
