package udbms

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/kv"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// storeScan is one document collection, relational table, key-value
// prefix (FromKVPrefix's rows), edge label in prefix (FromEdgeEnds's
// rows, as keys[0]) or the XML store (FromXML's rows) read under the
// pipeline's handle for it.
type storeScan struct {
	side   buildSide
	acc    Access
	prefix string
	keys   []string
}

func (s storeScan) tx() *txn.Tx {
	switch s.side.(type) {
	case *document.Collection:
		return s.acc.DocTx()
	case *kv.Store:
		return s.acc.KVTx()
	case *graph.Store:
		return s.acc.GraphTx()
	case *xmlstore.Store:
		return s.acc.XMLTx()
	}
	return s.acc.RelTx()
}

// stream calls fn for every row of the store as tx sees it, in scan
// order.
func (s storeScan) stream(tx *txn.Tx, fn func(mmvalue.Value) bool) {
	switch side := s.side.(type) {
	case *document.Collection:
		side.Stream(tx, nil, fn)
	case *relational.Table:
		side.Stream(tx, nil, fn)
	case *kv.Store:
		parts := make([]string, len(s.keys))
		side.ScanPrefix(tx, s.prefix, func(key string, v mmvalue.Value) bool {
			return !kvParts(key[len(s.prefix):], parts) || fn(kvField(s.keys, parts, v, nil))
		})
	case *graph.Store:
		side.EachEdge(tx, s.prefix, func(e *graph.Edge) bool {
			return fn(mmvalue.ObjectOf(s.keys[0], string(e.From))) && fn(mmvalue.ObjectOf(s.keys[0], string(e.To)))
		})
	case *xmlstore.Store:
		side.Scan(tx, func(id string, doc *xmlstore.Node) bool { return fn(xmlRow(id, doc)) })
	}
}

// cacheKey is the join cache's key for the projection of s's rows and,
// with arr, of arr's elements (no name holds a NUL).
func (s storeScan) cacheKey(arr *arraySpec) joinCacheKey {
	k := joinCacheKey{store: s.side, prefix: s.prefix, keys: strings.Join(s.keys, "\x00")}
	if arr != nil {
		k.arr = "\x00" + strings.Join(arr.path, "\x00")
	}
	return k
}

// kvParts splits key at "/" into parts, reporting false when it has
// another number of parts than len(parts) (FromKVPrefix skips it).
func kvParts(key string, parts []string) bool {
	for i := range parts {
		var more bool
		if parts[i], key, more = strings.Cut(key, "/"); more != (i < len(parts)-1) {
			return false
		}
	}
	return len(parts) > 0
}

// kvField is path in the row of the value v stored under a key of these
// parts, read without building the row unless path is empty. The row
// holds each key part, a string, under its name and v as "value".
func kvField(keys, parts []string, v mmvalue.Value, path mmvalue.Path) mmvalue.Value {
	switch {
	case len(path) == 0:
		row := mmvalue.NewObject()
		for i, k := range keys {
			row.Set(k, mmvalue.String(parts[i]))
		}
		row.Set("value", v)
		return mmvalue.FromObject(row)
	case path[0] == "value":
		return path[1:].LookupOr(v, mmvalue.Null)
	}
	for i := len(keys) - 1; i >= 0; i-- { // a repeated name holds its last part, as in the row
		if keys[i] == path[0] && len(path) == 1 {
			return mmvalue.String(parts[i])
		}
	}
	return mmvalue.Null
}

// xmlRow is the row of XML document doc stored under id (FromXML): its
// id, root attributes and first child elements by name, each field
// equal to xmlField's.
func xmlRow(id string, doc *xmlstore.Node) mmvalue.Value {
	row := mmvalue.NewObject()
	for _, a := range doc.Attrs {
		row.Set("@"+a.Name, mmvalue.String(a.Value))
	}
	for _, c := range doc.Children {
		if _, dup := row.Get(c.Name); !c.IsText() && !dup {
			row.Set(c.Name, xmlText(c.InnerText()))
		}
	}
	row.Set("_id", mmvalue.String(id))
	return mmvalue.FromObject(row)
}

// xmlField is path in xmlRow(id, doc), read off the tree unless path is
// empty: null when the row has no such field, and below a field, which
// holds no object.
func xmlField(id string, doc *xmlstore.Node, path mmvalue.Path) mmvalue.Value {
	switch {
	case len(path) == 0:
		return xmlRow(id, doc)
	case len(path) > 1:
		return mmvalue.Null
	case path[0] == "_id":
		return mmvalue.String(id)
	}
	if name, ok := strings.CutPrefix(path[0], "@"); ok {
		if v, ok := doc.Attr(name); ok {
			return mmvalue.String(v)
		}
	} else if c, ok := doc.FirstChild(path[0]); ok {
		return xmlText(c.InnerText())
	}
	return mmvalue.Null
}

// xmlText is an element's text as a field: a number when it parses as
// one.
func xmlText(text string) mmvalue.Value {
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return mmvalue.Float(f)
	}
	return mmvalue.String(text)
}

// column is one path's values over a projection's rows, in scan order,
// and a bitmap of the rows that have one: a vector of their one kind if
// that is int, float or string, else vals. Its vectors are made with room
// for hint rows. Every copy of a column shares its memo.
type column struct {
	kind   mmvalue.Kind // the last value's: KindNull until the first value
	hint   int
	valid  []uint64
	ints   []int64
	floats []float64
	strs   []string
	vals   []mmvalue.Value
	memo   *memo
}

// memo is what derives from a column once its rows are all added: its
// dict, its last link (to linkTo's column) and, for a join build's key
// column, byKey's matches.
type memo struct {
	mu      sync.Mutex
	dict    *dict
	linkTo  *dict
	link    []int32
	matches *matches
}

// add sets row r, the next row, to v. A row without a value reads zero
// in the vector; valid tells the two apart.
func (c *column) add(r int, v mmvalue.Value) {
	if r%64 == 0 {
		c.valid = append(padded(c.valid, r/64, (c.hint+63)/64), 0)
	}
	k := v.Kind()
	if k == mmvalue.KindNull {
		return
	}
	if typed := k == mmvalue.KindInt || k == mmvalue.KindFloat || k == mmvalue.KindString; c.vals == nil &&
		(!typed || c.kind != mmvalue.KindNull && k != c.kind) { // the rows so far move to vals
		vals := make([]mmvalue.Value, r, max(c.hint, r+1))
		for i := range vals {
			vals[i] = c.value(i)
		}
		c.vals, c.ints, c.floats, c.strs = vals, nil, nil, nil
	}
	switch {
	case c.vals != nil:
		c.vals = append(padded(c.vals, r, c.hint), v)
	case k == mmvalue.KindInt:
		c.ints = append(padded(c.ints, r, c.hint), v.MustInt())
	case k == mmvalue.KindFloat:
		f, _ := v.AsFloat()
		c.floats = append(padded(c.floats, r, c.hint), f)
	default:
		c.strs = append(padded(c.strs, r, c.hint), v.MustString())
	}
	c.kind = k
	c.valid[r/64] |= 1 << (r % 64)
}

// padded returns s at length r, the new entries zero; when s is nil it
// is made with room for hint entries.
func padded[T any](s []T, r, hint int) []T {
	if s == nil {
		s = make([]T, 0, max(hint, r+1))
	}
	return append(s, make([]T, r-len(s))...)
}

// has reports whether row r has a value: false when r < 0.
func (c *column) has(r int) bool { return r >= 0 && c.valid[r/64]&(1<<(r%64)) != 0 }

// value returns row r's value: null when r < 0 or the row has none.
func (c *column) value(r int) mmvalue.Value {
	switch {
	case !c.has(r):
		return mmvalue.Null
	case c.vals != nil:
		return c.vals[r]
	case c.kind == mmvalue.KindInt:
		return mmvalue.Int(c.ints[r])
	case c.kind == mmvalue.KindFloat:
		return mmvalue.Float(c.floats[r])
	}
	return mmvalue.String(c.strs[r])
}

// compare orders rows i and j by their values as mmvalue.Compare does,
// natively on a typed vector (cmp.Compare orders NaN first and -0 = 0).
func (c *column) compare(i, j int) int {
	switch {
	case !c.has(i) || !c.has(j) || c.vals != nil:
		return mmvalue.Compare(c.value(i), c.value(j))
	case c.kind == mmvalue.KindInt:
		return cmp.Compare(c.ints[i], c.ints[j])
	case c.kind == mmvalue.KindFloat:
		return cmp.Compare(c.floats[i], c.floats[j])
	}
	return strings.Compare(c.strs[i], c.strs[j])
}

// projection is one store's rows at one version, one column per path in
// paths (a view leaves paths to the projection it reads); dicts, links
// and matches derive from the columns on first use.
// elems projects the elements of the array a plan unnests from these
// rows, row r's being off[r] ≤ e < off[r+1].
type projection struct {
	n     int
	paths []mmvalue.Path
	cols  []column
	off   []int32
	elems *projection
}

func newProjection(paths int) *projection {
	p := &projection{cols: make([]column, paths)}
	for c := range p.cols {
		p.cols[c].memo = &memo{}
	}
	return p
}

// addRow appends a row whose value at each of p's paths is field's.
func (p *projection) addRow(field func(mmvalue.Path) mmvalue.Value) {
	for c, path := range p.paths {
		p.cols[c].add(p.n, field(path))
	}
	p.n++
}

// add appends row to p, and the elements of its array at arr to p.elems.
func (p *projection) add(row mmvalue.Value, arr mmvalue.Path) {
	p.addRow(func(path mmvalue.Path) mmvalue.Value { return path.LookupOr(row, mmvalue.Null) })
	if p.elems != nil {
		items, _ := arr.LookupOr(row, mmvalue.Null).AsArray()
		for _, it := range items {
			p.elems.add(it, nil)
		}
		p.off = append(p.off, int32(p.elems.n))
	}
}

// project is s.columns sized by the store's Len (the key-value store's
// counts by scanning, so its are not).
func project(s storeScan, tx *txn.Tx, paths []mmvalue.Path, arr *arraySpec) *projection {
	rows := 0
	if _, isKV := s.side.(*kv.Store); !isKV {
		rows = s.side.Len()
	}
	return s.columns(tx, paths, arr, rows, 0)
}

// columns scans s under tx into a new projection onto paths and, with
// arr, arr's elements onto arr.elems, its vectors made with room for rows
// rows and elems elements.
func (s storeScan) columns(tx *txn.Tx, paths []mmvalue.Path, arr *arraySpec, rows, elems int) *projection {
	p, at := sized(paths, rows), mmvalue.Path(nil)
	if arr != nil {
		at, p.elems, p.off = arr.path, sized(arr.elems, elems), make([]int32, 1, rows+1)
	}
	g, ok := s.side.(*graph.Store)
	if ok && arr == nil && len(paths) == 1 && slices.Equal(paths[0], mmvalue.Path{s.keys[0]}) { // the ends alone: no row is built
		end := func(v graph.VID) { p.cols[0].add(p.n, mmvalue.String(string(v))); p.n++ }
		if !g.EdgeEnds(tx, s.prefix, end) {
			g.EachEdge(tx, s.prefix, func(e *graph.Edge) bool { end(e.From); end(e.To); return true })
		}
		return p
	}
	if kvs, ok := s.side.(*kv.Store); ok && arr == nil {
		parts := make([]string, len(s.keys))
		kvs.ScanPrefix(tx, s.prefix, func(key string, v mmvalue.Value) bool { // off the key and value: no row is built
			if kvParts(key[len(s.prefix):], parts) {
				p.addRow(func(path mmvalue.Path) mmvalue.Value { return kvField(s.keys, parts, v, path) })
			}
			return true
		})
		return p
	}
	if x, ok := s.side.(*xmlstore.Store); ok && arr == nil {
		x.Scan(tx, func(id string, doc *xmlstore.Node) bool { // off the tree: no row is built
			p.addRow(func(path mmvalue.Path) mmvalue.Value { return xmlField(id, doc, path) })
			return true
		})
		return p
	}
	s.stream(tx, func(row mmvalue.Value) bool {
		p.add(row, at)
		return true
	})
	return p
}

// sized is an empty projection onto paths, made with room for rows rows.
func sized(paths []mmvalue.Path, rows int) *projection {
	p := newProjection(len(paths))
	for c := range p.cols {
		p.cols[c].hint = rows
	}
	p.paths = slices.Clone(paths) // a copy, so that a plan's paths need not escape to the heap
	return p
}

// index returns the index of path's column in p (nil: none), or -1.
func (p *projection) index(path mmvalue.Path) int {
	if p == nil {
		return -1
	}
	return slices.IndexFunc(p.paths, func(q mmvalue.Path) bool { return slices.Equal(q, path) })
}

// lacks returns the paths of paths, and arr with the element paths of
// arr, that p holds no column for: a nil arr when p holds all of arr's.
func (p *projection) lacks(paths []mmvalue.Path, arr *arraySpec) (lack []mmvalue.Path, lackArr *arraySpec) {
	for _, path := range paths {
		if p.index(path) < 0 {
			lack = append(lack, path)
		}
	}
	if arr == nil || p == nil {
		return lack, arr
	}
	if els, _ := p.elems.lacks(arr.elems, nil); els != nil { // an array's entry holds its elements
		lackArr = &arraySpec{path: arr.path, elems: els}
	}
	return lack, lackArr
}

// with returns p plus q's columns, which p lacks, q holding the same
// rows (and elements); p and q stay as they are.
func (p *projection) with(q *projection) *projection {
	m := &projection{n: p.n, paths: append(slices.Clip(p.paths), q.paths...), cols: append(slices.Clip(p.cols), q.cols...),
		off: p.off, elems: p.elems}
	if q.elems != nil {
		m.elems = m.elems.with(q.elems)
	}
	return m
}

// view is p's columns at paths, in that order, and with arr its
// elements' at arr.elems; p must hold them all.
func (p *projection) view(paths []mmvalue.Path, arr *arraySpec) *projection {
	if arr == nil && slices.EqualFunc(p.paths, paths, func(a, b mmvalue.Path) bool { return slices.Equal(a, b) }) {
		return p // a join build's: none gains columns
	}
	v := &projection{n: p.n, cols: make([]column, len(paths))}
	for c, path := range paths {
		v.cols[c] = p.cols[p.index(path)]
	}
	if arr != nil {
		v.off, v.elems = p.off, p.elems.view(arr.elems, nil)
	}
	return v
}

// dict codes a column densely: the distinct values under mmvalue.Equal
// in order of first appearance, code 0 being null; ranked orders them.
type dict struct {
	col    *column
	codes  []int32            // per row
	first  []int32            // per code, the first row holding it (-1: null)
	ints   map[int64]int32    // an int column's codes by value
	strs   map[string]int32   // a string column's codes by value
	index  map[uint64][]int32 // other codes by value hash
	once   sync.Once
	byRank []int32
	ties   bool // two codes compare equal: values Equal that Hash told apart, such as two NaNs
}

// val returns code c's value.
func (d *dict) val(c int) mmvalue.Value { return d.col.value(int(d.first[c])) }

// compare orders codes a and b by their values, as mmvalue.Compare.
func (d *dict) compare(a, b int32) int { return d.col.compare(int(d.first[a]), int(d.first[b])) }

// ranked returns the codes in mmvalue.Compare order, equal ones in code
// order, and whether any are equal: sorted once, for all a cached dict's readers.
func (d *dict) ranked() ([]int32, bool) {
	d.once.Do(func() {
		d.byRank = make([]int32, len(d.first))
		for c := range d.byRank {
			d.byRank[c] = int32(c)
		}
		slices.SortStableFunc(d.byRank, d.compare)
		d.ties = !slices.IsSortedFunc(d.byRank, func(a, b int32) int { return cmp.Or(d.compare(a, b), -1) }) // an equal pair reads as out of order
	})
	return d.byRank, d.ties
}

// code returns v's code, or -1 when no row holds v. Into an int column a
// float is looked up as its int64, as Value.Hash buckets it, and found
// only when the two compare equal.
func (d *dict) code(v mmvalue.Value) int32 {
	if s, ok := v.AsString(); ok && d.strs != nil {
		if c, ok := d.strs[s]; ok {
			return c
		}
		return -1
	}
	if f, ok := v.AsFloat(); ok && d.ints != nil {
		i, isInt := v.AsInt()
		if !isInt && float64(int64(f)) == f {
			i, isInt = int64(f), true
		}
		if c, ok := d.ints[i]; ok && isInt {
			return c
		}
		return -1
	}
	for _, c := range d.index[v.Hash()] {
		if mmvalue.Equal(d.val(int(c)), v) {
			return c
		}
	}
	return -1
}

// keeps returns, per code, whether a Where over vals keeps its rows:
// the codes of the values are looked up once, and null's, 0, is never
// kept.
func (d *dict) keeps(vals []mmvalue.Value) []bool {
	in := make([]bool, len(d.first))
	for _, v := range vals {
		in[max(d.code(v), 0)] = true // an absent value's code is -1
	}
	in[0] = false
	return in
}

// dict returns column col's dict.
func (p *projection) dict(col int) *dict {
	m := p.cols[col].memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dict == nil {
		m.dict = newDict(&p.cols[col], p.n)
	}
	return m.dict
}

// newDict codes col's n rows: an int or string vector through a Go map,
// which codes them faster than hashed Values, and any other by hash.
func newDict(col *column, n int) *dict {
	d := &dict{col: col, codes: make([]int32, n), first: []int32{-1},
		index: map[uint64][]int32{mmvalue.Null.Hash(): {0}}}
	switch {
	case col.vals == nil && col.kind == mmvalue.KindInt:
		d.ints = codeRows(d, col.ints)
		return d
	case col.vals == nil && col.kind == mmvalue.KindString:
		d.strs = codeRows(d, col.strs)
		return d
	}
	for r := range d.codes {
		v := col.value(r)
		if d.codes[r] = d.code(v); d.codes[r] < 0 {
			h := v.Hash()
			d.codes[r] = int32(len(d.first))
			d.index[h] = append(d.index[h], d.codes[r])
			d.first = append(d.first, int32(r))
		}
	}
	return d
}

// codeRows codes d's rows, whose values are vec's where the column has
// one, through the map it returns: no Value is built.
func codeRows[T comparable](d *dict, vec []T) map[T]int32 {
	m := map[T]int32{}
	for r := range vec {
		if !d.col.has(r) {
			continue
		}
		c, ok := m[vec[r]]
		if !ok {
			c = int32(len(d.first))
			m[vec[r]], d.first = c, append(d.first, int32(r))
		}
		d.codes[r] = c
	}
	return m
}

// link returns, for every row, the first row of build whose first
// column equals the row's non-null value in column col, or -1.
func (p *projection) link(col int, build *projection) []int32 {
	keys := build.dict(0) // before the memo's lock: col may be build's column 0
	m := p.cols[col].memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.linkTo == keys {
		return m.link
	}
	rows := make([]int32, p.n)
	for r := range rows {
		rows[r] = -1
		if c := keys.code(p.cols[col].value(r)); c > 0 { // code 0: null, which matches nothing
			rows[r] = keys.first[c]
		}
	}
	m.linkTo, m.link = keys, rows
	return rows
}

// matches is a join's build structure: the whole rows of a projection
// onto [key path, whole row] by key code, code c's in scan order at
// rows[start[c]:start[c+1]]. Null keys (code 0) match nothing.
type matches struct {
	keys  *dict
	rows  []mmvalue.Value
	start []int32
}

// get returns the build rows whose key equals key under mmvalue.Equal.
func (m *matches) get(key mmvalue.Value) []mmvalue.Value {
	if c := m.keys.code(key); c > 0 {
		return m.rows[m.start[c]:m.start[c+1]:m.start[c+1]]
	}
	return nil
}

// byKey returns p's rows (column 1) grouped by their key (column 0),
// cached with column 0's dict: a join build's projection pairs its key
// column with no other.
func (p *projection) byKey() *matches {
	keys := p.dict(0) // before the memo's lock
	m := p.cols[0].memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.matches != nil {
		return m.matches
	}
	// A counting sort by code: start[c] counts up to the end of code c's
	// rows, and placing the rows back to front moves it to their start.
	start := make([]int32, len(keys.first)+1)
	for _, c := range keys.codes {
		start[c]++
	}
	start[0] = 0
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	rows := make([]mmvalue.Value, start[len(start)-1])
	for r := len(keys.codes) - 1; r >= 0; r-- {
		if c := keys.codes[r]; c > 0 {
			start[c]--
			rows[start[c]] = p.cols[1].value(r)
		}
	}
	m.matches = &matches{keys, rows, start}
	return m.matches
}

// projPlan is a plan's projected prefix. Scan 0 is the seed, scan j+1
// join j's build side and, with an Unnest, the last scan the elements
// of arr; paths[i] are the paths projected from scan i, and a colRef
// names one of them.
type projPlan struct {
	scans   []storeScan
	paths   [][]mmvalue.Path
	joins   []*joinSpec
	arr     *arraySpec
	probes  []colRef // per join, its probe key
	filters []projFilter
	key     colRef   // the GroupBy key
	aggs    []colRef // per aggregate; unused for Count
	rest    []stage  // the GroupBy and the stages after it
	bad     bool     // a path reads a match array other than at ".0.", or a row a stage extended
}

// projFilter is a Where over one column. Its values stay out of the
// plan's paths, and so out of the projection cache keys.
type projFilter struct {
	col  colRef
	vals []mmvalue.Value
}

// arraySpec is the array a plan unnests: at path in the rows of scan,
// each element under as, and the element paths the plan reads.
type arraySpec struct {
	scan  int
	path  mmvalue.Path
	as    string
	elems []mmvalue.Path
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
		case *perRowStage:
			if !st.unnest || pl.arr != nil {
				return nil, false
			}
			scan, rest := pl.locate(st.path)
			pl.arr = &arraySpec{scan: scan, path: rest, as: st.asField}
		case *hashJoinStage:
			if pl.arr != nil {
				return nil, false
			}
			pl.probes = append(pl.probes, pl.resolve(mmvalue.Path{st.spec.rowField}))
			pl.joins = append(pl.joins, &st.spec)
			pl.scans = append(pl.scans, st.spec.storeScan)
			pl.paths = append(pl.paths, []mmvalue.Path{st.spec.keyPath})
		case *whereStage:
			pl.filters = append(pl.filters, projFilter{pl.resolve(st.path), st.vals})
		case *groupStage:
			pl.group(st)
			pl.rest = p.stages[i:]
			return pl, !pl.bad
		default:
			return nil, false
		}
	}
	return nil, false
}

// group names the columns GroupBy st reads: its key and aggregate
// paths.
func (pl *projPlan) group(st *groupStage) {
	pl.key = pl.resolve(st.key)
	pl.aggs = make([]colRef, len(st.aggs))
	for k, a := range st.aggs {
		if a.kind != aggCount {
			pl.aggs[k] = pl.resolve(a.path)
		}
	}
}

// resolve names the column at path, adding it to its scan's paths; a
// path that starts at the Unnest's field reads its elements.
func (pl *projPlan) resolve(path mmvalue.Path) colRef {
	if a := pl.arr; a != nil && len(path) > 0 && path[0] == a.as {
		return colRef{len(pl.scans), addPath(&a.elems, path[1:])}
	}
	scan, rest := pl.locate(path)
	return colRef{scan, addPath(&pl.paths[scan], rest)}
}

// addPath returns path's index in *paths, appending it if absent: a
// path read twice is projected once.
func addPath(paths *[]mmvalue.Path, path mmvalue.Path) int {
	if i := slices.IndexFunc(*paths, func(q mmvalue.Path) bool { return slices.Equal(q, path) }); i >= 0 {
		return i
	}
	*paths = append(*paths, path)
	return len(*paths) - 1
}

// locate finds the scan whose rows path reads, and the path within
// them: "<asField>.0.<rest>" is rest in the build rows of the last join
// that attaches asField, any other path a seed path. The whole row is a
// seed row only before the first join or Unnest attaches to it.
func (pl *projPlan) locate(path mmvalue.Path) (int, mmvalue.Path) {
	if len(path) == 0 && (len(pl.joins) > 0 || pl.arr != nil) {
		pl.bad = true
	}
	for j := len(pl.joins) - 1; j >= 0; j-- {
		if len(path) > 0 && path[0] == pl.joins[j].asField {
			if len(path) < 3 || path[1] != "0" {
				pl.bad = true
				return 0, nil
			}
			return j + 1, path[2:]
		}
	}
	return 0, path
}

// runProjected runs a plan of the projected shape over its scans'
// projections and reports true; it reports false, having emitted
// nothing, when the plan lacks the shape.
func (p *Pipeline) runProjected(onRow func(mmvalue.Value) bool) bool {
	pl, ok := p.projectedPlan()
	if !ok {
		return false
	}
	projs := make([]*projection, len(pl.scans), len(pl.scans)+1)
	for i, s := range pl.scans {
		var arr *arraySpec
		if pl.arr != nil && pl.arr.scan == i {
			arr = pl.arr
		}
		if projs[i] = p.joins.project(s.cacheKey(arr), s, pl.paths[i], arr, nil); arr != nil {
			projs = append(projs, projs[i].elems)
		}
	}
	g := &groupSink{st: pl.rest[0].(*groupStage), down: wireChain(pl.rest[1:], onRow),
		transient: !slices.ContainsFunc(pl.rest[1:], stage.retains)} // as wireChain has it
	g.fold(pl, projs)
	return true
}

// fold is GroupBy's one fold, a column at a time over projs, the
// projections of pl's scans. It lists the seed rows, or the (seed row,
// element) pairs of the Unnest; keeps those pl's Where stages keep;
// gathers their group key codes; runs each aggregate over (codes, rows)
// in one kernel (aggCols.fold); and emits the groups.
func (g *groupSink) fold(pl *projPlan, projs []*projection) {
	g.foldScratch = foldPool.Get().(*foldScratch)
	defer foldPool.Put(g.foldScratch)
	via := make([][]int32, len(projs)) // per join scan, each seed row's row in it; nil for the seed and the elements
	for j, probe := range pl.probes {
		via[j+1] = projs[0].link(probe.col, projs[j+1])
	}
	rows := make([][]int32, len(projs)) // per scan read, each kept row's row in it
	gather := func(scan int) []int32 {  // rows[scan], gathered through its link on first use
		if rows[scan] == nil {
			rows[scan] = g.vec(3+scan, len(rows[0]))
			for i, r := range rows[0] {
				rows[scan][i] = via[scan][r]
			}
		}
		return rows[scan]
	}
	rows[0] = g.vec(0, projs[0].n)
	for r := range rows[0] {
		rows[0][r] = int32(r)
	}
	if a, e := pl.arr, len(pl.scans); a != nil { // each seed row becomes its array's elements
		// An element Where lists the elements it keeps in one flat pass, els,
		// and row pr's are then els[off[pr]:off[pr+1]]: the expansion skips
		// the dropped ones, and the Where pass below keeps every pair.
		off, els := projs[a.scan].off, []int32(nil)
		w := slices.IndexFunc(pl.filters, func(f projFilter) bool { return f.col.scan == e })
		if w >= 0 {
			d := projs[e].dict(pl.filters[w].col.col)
			in := d.keeps(pl.filters[w].vals)
			els = g.vec(4+len(projs), 0)
			for el, c := range d.codes {
				if in[c] {
					els = append(els, int32(el))
				}
			}
			g.vecs[4+len(projs)] = els
			kept, i := g.vec(5+len(projs), len(off)), int32(0)
			for pr, o := range off {
				for ; int(i) < len(els) && els[i] < o; i++ {
				}
				kept[pr] = i
			}
			off = kept
		}
		parents, elems := g.vec(1, 0), g.vec(2, 0)
		for r, pr := range gather(a.scan) {
			if pr < 0 {
				continue
			}
			for el := off[pr]; el < off[pr+1]; el++ {
				parents, elems = append(parents, int32(r)), append(elems, el)
			}
		}
		if w >= 0 {
			for i, x := range elems {
				elems[i] = els[x]
			}
		}
		clear(rows)
		rows[0], rows[e], g.vecs[1], g.vecs[2] = parents, elems, parents, elems
	}
	for _, f := range pl.filters {
		d := projs[f.col.scan].dict(f.col.col)
		in, kept := d.keeps(f.vals), 0
		for i, r := range gather(f.col.scan) {
			if r >= 0 && in[d.codes[r]] {
				for _, rs := range rows {
					if rs != nil {
						rs[kept] = rs[i]
					}
				}
				kept++
			}
		}
		for s, rs := range rows {
			if rs != nil {
				rows[s] = rs[:kept]
			}
		}
	}
	g.keys = projs[pl.key.scan].dict(pl.key.col)
	codes, n := g.vec(3+len(projs), len(rows[0])), len(g.keys.first)
	g.count, g.groups = zeroed(g.count, n), g.groups[:0]
	for i, r := range gather(pl.key.scan) {
		if codes[i] = 0; r >= 0 {
			codes[i] = g.keys.codes[r]
		}
		if g.count[codes[i]] == 0 {
			g.groups = append(g.groups, codes[i])
		}
		g.count[codes[i]]++
	}
	g.aggs = slices.Grow(g.aggs[:0], len(pl.aggs))[:len(pl.aggs)]
	for k, ref := range pl.aggs {
		if kind := g.st.aggs[k].kind; kind != aggCount {
			g.aggs[k].fold(kind, &projs[ref.scan].cols[ref.col], n, codes, gather(ref.scan))
		}
	}
	g.emit()
}

// foldPool recycles fold's vectors and per-group state: a warm fold
// over thousands of groups would otherwise allocate them on every run.
var foldPool = sync.Pool{New: func() any { return &foldScratch{} }}

// foldScratch is a fold's row vectors, the group codes in order of first
// appearance, and per code the row count and each aggregate's state.
type foldScratch struct {
	vecs   [][]int32
	groups []int32
	count  []int64
	aggs   []aggCols
	nums   []float64 // order's scores
}

// vec returns fs's i-th vector at length n, its contents undefined.
func (fs *foldScratch) vec(i, n int) []int32 {
	for len(fs.vecs) <= i {
		fs.vecs = append(fs.vecs, nil)
	}
	fs.vecs[i] = slices.Grow(fs.vecs[i][:0], n)[:n]
	return fs.vecs[i]
}

// zeroed returns s at length n, all zero, reusing its array.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}
