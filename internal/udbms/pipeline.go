package udbms

import (
	"fmt"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// Access is how a pipeline reaches the stores: the transaction each
// model's requests run under (nil = that store's latest committed
// state) and Hop, which the executor calls once before every store
// request it issues — seed scan, join build scan, per-key index probe,
// per-row key-value prefix scan. Handles are asked for at
// request time, so an accessor may start them lazily.
type Access interface {
	RelTx() *txn.Tx
	DocTx() *txn.Tx
	GraphTx() *txn.Tx
	KVTx() *txn.Tx
	XMLTx() *txn.Tx
	Hop()
}

// Snapshot is the unified engine's Access: all five models under one
// transaction, and store requests are in-process calls, so Hop is free.
type Snapshot struct{ Tx *txn.Tx }

func (s Snapshot) RelTx() *txn.Tx   { return s.Tx }
func (s Snapshot) DocTx() *txn.Tx   { return s.Tx }
func (s Snapshot) GraphTx() *txn.Tx { return s.Tx }
func (s Snapshot) KVTx() *txn.Tx    { return s.Tx }
func (s Snapshot) XMLTx() *txn.Tx   { return s.Tx }
func (s Snapshot) Hop()             {}

// Pipeline is a fluent multi-model query: it starts from one model and
// hops across the others. Under DB.Pipeline all stages read one
// transaction snapshot, which is the core capability a unified engine
// offers over a federation; under PipelineOver the same stages run
// against independent stores through the caller's Access.
//
// Execution is lazy, streaming and vectorized: stages build an
// operator tree that is only evaluated when a terminal — Rows, Count
// or Each — pulls it, and operators exchange batches of up to 1024
// rows rather than single rows (see exec.go). Limit
// short-circuits upstream operators, and the cross-model joins pick per
// execution between store index probes and one projection of the build
// side, its rows grouped by key (joinSpec.route). Rows returned by Rows are deep copies
// and may be mutated freely; Each callbacks observe shared rows and
// must not mutate them.
//
// Build errors (an unknown table) are deferred to the terminals.
type Pipeline struct {
	st  datagen.Target
	acc Access
	// joins is the owning DB's join-build cache; nil under PipelineOver.
	joins *joinCache
	err   error
	src   *source
	// stages apply in order between the source and the terminal.
	stages []stage
}

// Pipeline starts an empty pipeline under tx (nil = latest committed):
// one snapshot across all models, free hops, and joins that rent index
// probes until a build would have paid, then memoize the build in the
// DB's version-keyed cache.
func (db *DB) Pipeline(tx *txn.Tx) *Pipeline {
	return &Pipeline{st: db.Stores(), acc: Snapshot{tx}, joins: &db.joins}
}

// PipelineOver starts an empty pipeline over stores no DB owns — the
// federation's. Every store request goes through a: it reads under a's
// handle for that model and pays a.Hop() first. There is no join cache
// (independent stores offer no common commit hook to invalidate one
// by), so each join picks per execution between per-key index probes,
// one request each, and one build-side scan, one request in all.
func PipelineOver(st datagen.Target, a Access) *Pipeline {
	return &Pipeline{st: st, acc: a}
}

// Rows executes the pipeline and returns the result rows. The rows are
// fully owned by the caller and may be mutated freely. Calling Rows
// (or Count/Each) again re-executes the pipeline.
func (p *Pipeline) Rows() ([]mmvalue.Value, error) {
	var out []mmvalue.Value
	if err := p.execute(func(r mmvalue.Value) bool {
		// Copy on collect: rows may alias store memory or scratch
		// objects that upstream operators recycle.
		out = append(out, r.Clone())
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Count executes the pipeline and returns the number of result rows
// without materializing (or copying) any of them.
func (p *Pipeline) Count() (int, error) {
	n := 0
	err := p.execute(func(mmvalue.Value) bool {
		n++
		return true
	})
	return n, err
}

// Each streams the result rows to fn, stopping early when fn returns
// false. The rows may alias store memory: they are valid for reading
// during the callback and must not be mutated or retained. This is the
// zero-copy terminal for aggregations.
func (p *Pipeline) Each(fn func(row mmvalue.Value) bool) error {
	return p.execute(fn)
}

// FromRelational seeds the pipeline with rows of the named table
// matching the predicate (nil = all rows). Equality predicates on the
// primary key or an indexed column are served from the index.
func (p *Pipeline) FromRelational(table string, where relational.Expr) *Pipeline {
	if p.err != nil {
		return p
	}
	t, ok := p.st.Relational.Table(table)
	if !ok {
		p.err = fmt.Errorf("udbms: no table %q", table)
		return p
	}
	p.src = &source{storeScan: storeScan{side: t, acc: p.acc}, where: where}
	return p
}

// FromDocuments seeds the pipeline with documents of the named
// collection matching the filter (nil = all documents). Filters that
// pin an indexed path are served from the index.
func (p *Pipeline) FromDocuments(collection string, filter document.Filter) *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &source{storeScan: storeScan{side: p.st.Docs.Collection(collection), acc: p.acc}, filter: filter}
	return p
}

// FromKVPrefix seeds the pipeline with the key-value pairs under prefix
// whose key remainder splits on "/" into exactly len(keyFields) parts,
// one row {keyFields[i]: part i, "value": value} per pair, in key order.
// Keys of any other shape are skipped.
func (p *Pipeline) FromKVPrefix(prefix string, keyFields ...string) *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &source{storeScan: storeScan{side: p.st.KV, acc: p.acc, prefix: prefix, keys: keyFields}}
	return p
}

// FromEdgeEnds seeds the pipeline with rows {as: From} and {as: To} for
// each live graph edge with label, so a self-loop's vertex comes twice,
// in no particular order. A projected plan reads them off the label's
// CSR (graph.Store.EdgeEnds) if its reader may; any other scan holds the
// graph's read lock, and no stage calls back into the graph.
func (p *Pipeline) FromEdgeEnds(label, as string) *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &source{storeScan: storeScan{side: p.st.Graph, acc: p.acc, prefix: label, keys: []string{as}}}
	return p
}

// FromXML seeds the pipeline with one row per XML document, in id
// order: {"_id": id, "@<attr>": <root attribute>, "<child>": <text>},
// where a child field is the inner text of the root's first child
// element of that name, a Float when strconv.ParseFloat accepts it and
// a String otherwise.
func (p *Pipeline) FromXML() *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &source{storeScan: storeScan{side: p.st.XML, acc: p.acc}}
	return p
}

// Where keeps the rows whose value at the dotted path is mmvalue.Equal
// to one of vals; a missing or null value matches nothing. Over column
// projections the values are looked up once per run in the column's
// dict, and a row is kept by its code.
func (p *Pipeline) Where(path string, vals ...any) *Pipeline {
	if p.err != nil {
		return p
	}
	set := make([]mmvalue.Value, len(vals))
	for i, v := range vals {
		set[i] = mmvalue.From(v)
	}
	p.stages = append(p.stages, &whereStage{path: mmvalue.ParsePath(path), vals: set, set: mmvalue.NewSet(set...)})
	return p
}

// Limit truncates the result to the first n rows; upstream operators
// stop as soon as the limit is satisfied (blocking stages — SortBy and
// the equality joins — buffer their input first and only stop emitting).
// Negative n means unlimited. GroupBy → SortBy(one of its aggregates) →
// Limit(n) builds only the n group rows the limit keeps.
func (p *Pipeline) Limit(n int) *Pipeline {
	if p.err != nil {
		return p
	}
	if k := len(p.stages); n >= 0 && k >= 2 {
		g, _ := p.stages[k-2].(*groupStage)
		s, _ := p.stages[k-1].(*sortStage)
		for a := 0; g != nil && s != nil && len(s.path) == 1 && a < len(g.aggs); a++ {
			if g.aggs[a].as == s.path[0] { // the last aggregate of a name is the field a row keeps
				g.top, g.topN, g.topAgg = s, n, a
			}
		}
	}
	p.stages = append(p.stages, &limitStage{n: n})
	return p
}

// Unnest replaces each row by one row per element of the array at path,
// holding the element under as; a missing, null or non-array value
// yields no rows.
func (p *Pipeline) Unnest(path, as string) *Pipeline {
	if p.err != nil {
		return p
	}
	pp := mmvalue.ParsePath(path)
	p.stages = append(p.stages, &perRowStage{asField: as, unnest: true, path: pp,
		fetch: func(r mmvalue.Value) []mmvalue.Value {
			elems, _ := pp.LookupOr(r, mmvalue.Null).AsArray()
			return elems
		}})
	return p
}

// SortBy orders rows by the value at the dotted path (stable). Sort is
// a blocking stage: it buffers its input before downstream stages see
// any row, so a following Limit implements top-N.
func (p *Pipeline) SortBy(path string, descending bool) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &sortStage{path: mmvalue.ParsePath(path), desc: descending})
	return p
}

// GroupBy folds the row stream into one row per distinct value at
// keyPath (missing values group under null), computing the given
// aggregates per group — see Sum, Count, Max, Avg. Each output
// row has the shape {asKey: key, <agg fields>...}, owned when collected
// or kept downstream and read-only during Each; rows stream out in
// ascending key order (mmvalue.Compare), so results are deterministic.
// GroupBy blocks like SortBy, buffering the values its paths read until
// the input ends; a following SortBy+Limit is top-N over aggregates.
func (p *Pipeline) GroupBy(keyPath, asKey string, aggs ...Agg) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &groupStage{key: mmvalue.ParsePath(keyPath), asKey: asKey, aggs: aggs})
	return p
}

// JoinDocuments extends each row with the documents of collection
// whose docPath value equals the row's rowField value; matches land as
// an array under asField. Rows without matches keep an empty array;
// null row keys match nothing. When the collection has an index on
// docPath the join rents — per-row index lookups — until the probes
// would have paid for a build, and then buys: one projection of the
// collection onto docPath and the whole document, its documents grouped
// by key, cached until its next commit (joinSpec.route). The build
// side is only scanned after the seed scan completes, so joining a
// collection with itself is safe.
func (p *Pipeline) JoinDocuments(collection, rowField, docPath, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	coll := p.st.Docs.Collection(collection)
	pp := mmvalue.ParsePath(docPath)
	var probe func(*txn.Tx, mmvalue.Value, func(mmvalue.Value) bool)
	if coll.HasIndex(docPath) {
		probe = func(tx *txn.Tx, key mmvalue.Value, fn func(mmvalue.Value) bool) {
			coll.LookupEq(tx, docPath, pp, key, fn)
		}
	}
	return p.hashJoin(storeScan{side: coll, acc: p.acc}, docPath, pp, rowField, asField, probe)
}

// JoinRelational extends each row with the rows of table whose column
// equals the row's rowField value, landing under asField as an array.
// Like JoinDocuments it rents primary-key or secondary-index lookups
// before it buys a projection of the table.
func (p *Pipeline) JoinRelational(table, rowField, column, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	t, ok := p.st.Relational.Table(table)
	if !ok {
		p.err = fmt.Errorf("udbms: no table %q", table)
		return p
	}
	var probe func(*txn.Tx, mmvalue.Value, func(mmvalue.Value) bool)
	if t.UsesIndex(relational.Col(column).Eq(0)) {
		probe = func(tx *txn.Tx, key mmvalue.Value, fn func(mmvalue.Value) bool) {
			t.Stream(tx, relational.Col(column).Eq(key), fn)
		}
	}
	return p.hashJoin(storeScan{side: t, acc: p.acc}, column, mmvalue.Path{column}, rowField, asField, probe)
}

// JoinXML extends each row with the XML document whose id equals the
// row's rowField value, as a one-row array under asField in FromXML's
// row form; a row whose key names no document keeps an empty array. It
// rents document lookups by id before it buys a projection of the
// store, like JoinDocuments.
func (p *Pipeline) JoinXML(rowField, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	return p.hashJoin(storeScan{side: p.st.XML, acc: p.acc}, "_id", mmvalue.Path{"_id"}, rowField, asField,
		func(tx *txn.Tx, key mmvalue.Value, fn func(mmvalue.Value) bool) {
			if id, ok := key.AsString(); ok {
				if doc, ok := p.st.XML.Get(tx, id); ok {
					fn(xmlRow(id, doc))
				}
			}
		})
}

// hashJoin appends the equality join against one build side: keyPath
// locates a build row's join key (field names it in the cache key), and
// probe — nil without an index on field — streams the rows matching one
// key.
func (p *Pipeline) hashJoin(side storeScan, field string, keyPath mmvalue.Path, rowField, asField string,
	probe func(*txn.Tx, mmvalue.Value, func(mmvalue.Value) bool)) *Pipeline {
	spec := joinSpec{
		rowField:  rowField,
		asField:   asField,
		storeScan: side,
		keyPath:   keyPath,
		cache:     p.joins,
		key:       joinCacheKey{store: side.side, field: field},
	}
	if probe != nil {
		spec.probeBelow = p.probeBelow(side.side.Len())
		spec.indexProbe = func(key mmvalue.Value, fn func(mmvalue.Value) bool) {
			p.acc.Hop()
			probe(side.tx(), key, fn)
		}
	}
	p.stages = append(p.stages, &hashJoinStage{spec: spec})
	return p
}

// probeScanRatio is what one index probe costs in build-side rows
// scanned into a join's projection, in process (2 cores, go1.24). The
// /cold legs of BenchmarkPipelineJoin put a probe returning ~4 small
// documents at ≈ 3.1 µs (probe10 cold 39.8 µs − warm 8.6 µs, over 10)
// and a build at ≈ 0.81 µs per row (probe500 cold 977 µs − warm 165 µs,
// over 1 000 rows): ≈ 4. On the benchmark's orders collection, keyed on
// customer_id, a probe in a loop costs 2.0–2.3 µs against 0.52–0.59 µs
// per order built at SF 1 (≈ 4), and 4.2–4.5 µs against 0.66–0.72 µs at
// SF 4 (≈ 6). The constant was set at ≈ 8–10, when a lookup sorted its
// keys and searched the record map per candidate; it stays there so that
// index entries holding their chains leave every route decision as it was.
const probeScanRatio = 10

// probeBelow is the number of probe rows that cost as much as one scan
// of an indexed build side of buildLen rows: the rent a join pays in
// index probes before it buys a build (joinSpec.route). In
// process that is buildLen/probeScanRatio, and never under 4. Under
// PipelineOver (no join cache) every probe is a round trip and the
// whole scan is one, so only a single probe is worth sending.
func (p *Pipeline) probeBelow(buildLen int) int {
	if p.joins == nil {
		return 2
	}
	return max(buildLen/probeScanRatio, 4)
}

// JoinKVPrefix extends each row with all key-value pairs whose key has
// prefix prefixFn(row), landing under asField as an array of
// {key, value} objects. Each row costs one bounded skip-list seek —
// the key-value store's native prefix index; an empty prefix, none.
func (p *Pipeline) JoinKVPrefix(prefixFn func(row mmvalue.Value) string, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &perRowStage{
		asField: asField,
		fetch: func(r mmvalue.Value) (matches []mmvalue.Value) {
			prefix := prefixFn(r)
			if prefix == "" {
				return nil
			}
			p.acc.Hop()
			p.st.KV.ScanPrefix(p.acc.KVTx(), prefix, func(k string, v mmvalue.Value) bool {
				matches = append(matches, mmvalue.Object2("key", mmvalue.String(k), "value", v))
				return true
			})
			return matches
		},
	})
	return p
}
