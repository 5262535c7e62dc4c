package udbms

import (
	"fmt"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// Access is how a pipeline reaches the stores: the transaction each
// model's requests run under (nil = that store's latest committed
// state) and Hop, which the executor calls once before every store
// request it issues — seed scan, join build scan, per-key index probe,
// per-row key-value / XML / graph fetch. Handles are asked for at
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
// or Each — pulls it, and operators exchange column batches of up to
// 1024 rows rather than single rows (see exec.go). Limit
// short-circuits upstream operators, filters narrow batches through a
// selection vector against shared store memory without copying, and
// the cross-model joins build a hash table over the smaller side
// (falling back to store indexes when the probe set is small). Rows
// returned by Rows are deep copies and may be mutated freely; Filter
// predicates and Each callbacks observe shared rows and must not
// mutate them.
//
// Build errors (unknown table, bad XPath) are deferred to the
// terminals and visible early via Err.
type Pipeline struct {
	st  datagen.Target
	acc Access
	// joins is the owning DB's join-build cache; nil under PipelineOver.
	joins *joinCache
	err   error
	src   source
	// stages apply in order between the source and the terminal.
	stages []stage
}

// Pipeline starts an empty pipeline under tx (nil = latest committed):
// one snapshot across all models, free hops, and join builds memoized
// in the DB's version-keyed cache.
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

// Err returns the first error the pipeline encountered while building.
func (p *Pipeline) Err() error { return p.err }

// Rows executes the pipeline and returns the result rows. The rows are
// fully owned by the caller and may be mutated freely. Calling Rows
// (or Count/Each) again re-executes the pipeline.
func (p *Pipeline) Rows() ([]mmvalue.Value, error) {
	owned := p.finalState() == rowOwned
	var out []mmvalue.Value
	if err := p.execute(func(r mmvalue.Value) bool {
		if !owned {
			// Copy on collect: upstream operators may recycle row
			// storage, and shared rows must not leak store memory.
			r = r.Clone()
		}
		out = append(out, r)
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
	p.src = &relSource{t: t, acc: p.acc, where: where}
	return p
}

// FromDocuments seeds the pipeline with documents of the named
// collection matching the filter (nil = all documents). Filters that
// pin an indexed path are served from the index.
func (p *Pipeline) FromDocuments(collection string, filter document.Filter) *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &docSource{c: p.st.Docs.Collection(collection), acc: p.acc, filter: filter}
	return p
}

// FromGraphVertices seeds the pipeline with graph vertices whose label
// matches (""=any) and whose properties satisfy ok (nil=all). Each row
// is the vertex property object extended with "_vid" and "_label".
func (p *Pipeline) FromGraphVertices(label string, ok func(graph.Vertex) bool) *Pipeline {
	if p.err != nil {
		return p
	}
	p.src = &graphSource{g: p.st.Graph, acc: p.acc, label: label, ok: ok}
	return p
}

// Filter keeps rows for which keep returns true. The predicate runs
// against shared rows and must not mutate them.
func (p *Pipeline) Filter(keep func(row mmvalue.Value) bool) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &filterStage{keep: keep})
	return p
}

// Map replaces each row with fn(row). fn receives a private copy and
// may mutate it freely.
func (p *Pipeline) Map(fn func(row mmvalue.Value) mmvalue.Value) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &mapStage{fn: fn})
	return p
}

// Limit truncates the result to the first n rows; upstream operators
// stop as soon as the limit is satisfied (blocking stages — SortBy and
// the hash joins — buffer their input first and only stop emitting).
// Negative n means unlimited.
func (p *Pipeline) Limit(n int) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &limitStage{n: n})
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
// aggregates per group — see Sum, Count, Min, Max, Avg. Each output
// row is fully owned and has the shape {asKey: key, <agg fields>...};
// rows stream out in ascending key order (mmvalue.Compare), so results
// are deterministic. GroupBy is a blocking stage like SortBy: it
// buffers accumulators until the input ends, then a following Filter
// acts as a HAVING clause and SortBy+Limit as top-N over aggregates.
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
// null row keys match nothing. The join is executed as a build-once
// hash join over the collection unless the probe set is small and the
// collection has an index on docPath, in which case it falls back to
// per-row index lookups. The build side is only scanned after the
// seed scan completes, so joining a collection with itself is safe.
func (p *Pipeline) JoinDocuments(collection, rowField, docPath, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	coll := p.st.Docs.Collection(collection)
	pp := mmvalue.ParsePath(docPath)
	scan := func(tx *txn.Tx) *hashTable {
		ht := newHashTable(coll.Len())
		coll.Stream(tx, nil, func(doc mmvalue.Value) bool {
			if v, ok := pp.Lookup(doc); ok && !v.IsNull() {
				ht.add(v, doc)
			}
			return true
		})
		return ht
	}
	spec := joinSpec{
		rowField: rowField,
		asField:  asField,
		build: func() *hashTable {
			p.acc.Hop()
			return scan(p.acc.DocTx())
		},
	}
	if p.joins != nil {
		key := joinCacheKey{store: coll, field: docPath}
		spec.cacheGet = func() *hashTable { return p.joins.get(key, coll.Version(), p.acc.DocTx()) }
		spec.cachePut = func() *hashTable {
			return p.joins.put(key, coll.Manager(), coll.Version, p.acc.DocTx(), scan)
		}
	}
	if coll.HasIndex(docPath) {
		spec.probeBelow = p.probeBelow(coll.Len())
		spec.indexProbe = func(key mmvalue.Value) []mmvalue.Value {
			var matches []mmvalue.Value
			p.acc.Hop()
			coll.Stream(p.acc.DocTx(), document.Eq(docPath, key), func(doc mmvalue.Value) bool {
				matches = append(matches, doc)
				return true
			})
			return matches
		}
	}
	p.stages = append(p.stages, &hashJoinStage{spec: spec})
	return p
}

// JoinRelational extends each row with the rows of table whose column
// equals the row's rowField value, landing under asField as an array.
// Like JoinDocuments it is a build-once hash join with a fallback to
// primary-key or secondary-index lookups for small probe sets.
func (p *Pipeline) JoinRelational(table, rowField, column, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	t, ok := p.st.Relational.Table(table)
	if !ok {
		p.err = fmt.Errorf("udbms: no table %q", table)
		return p
	}
	scan := func(tx *txn.Tx) *hashTable {
		ht := newHashTable(t.Len())
		t.Stream(tx, nil, func(row mmvalue.Value) bool {
			if v, ok := row.MustObject().Get(column); ok && !v.IsNull() {
				ht.add(v, row)
			}
			return true
		})
		return ht
	}
	spec := joinSpec{
		rowField: rowField,
		asField:  asField,
		build: func() *hashTable {
			p.acc.Hop()
			return scan(p.acc.RelTx())
		},
	}
	if p.joins != nil {
		key := joinCacheKey{store: t, field: column}
		spec.cacheGet = func() *hashTable { return p.joins.get(key, t.Version(), p.acc.RelTx()) }
		spec.cachePut = func() *hashTable {
			return p.joins.put(key, t.Manager(), t.Version, p.acc.RelTx(), scan)
		}
	}
	if t.UsesIndex(relational.Col(column).Eq(0)) {
		spec.probeBelow = p.probeBelow(t.Len())
		spec.indexProbe = func(key mmvalue.Value) []mmvalue.Value {
			var matches []mmvalue.Value
			p.acc.Hop()
			t.Stream(p.acc.RelTx(), relational.Col(column).Eq(key), func(row mmvalue.Value) bool {
				matches = append(matches, row)
				return true
			})
			return matches
		}
	}
	p.stages = append(p.stages, &hashJoinStage{spec: spec})
	return p
}

// probeBelow is the probe-set size under which a join against an
// indexed build side of buildLen rows sends per-key index probes
// instead of scanning the build side once. In process a probe costs
// about eight scanned rows. Under PipelineOver (no join cache) every
// probe is a round trip and the whole scan is one, so only a single
// probe is worth sending.
func (p *Pipeline) probeBelow(buildLen int) int {
	if p.joins == nil {
		return 2
	}
	return min(max(buildLen/8, 4), 1024)
}

// JoinKVPrefix extends each row with all key-value pairs whose key has
// prefix prefixFn(row), landing under asField as an array of
// {key, value} objects. Each row costs one bounded skip-list seek —
// the key-value store's native prefix index.
func (p *Pipeline) JoinKVPrefix(prefixFn func(row mmvalue.Value) string, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &perRowStage{
		asField: asField,
		fetch: func(r mmvalue.Value) []mmvalue.Value {
			var matches []mmvalue.Value
			p.acc.Hop()
			p.st.KV.ScanPrefix(p.acc.KVTx(), prefixFn(r), func(k string, v mmvalue.Value) bool {
				matches = append(matches, mmvalue.ObjectOf("key", k, "value", v))
				return true
			})
			return matches
		},
	})
	return p
}

// JoinXML evaluates the XPath against the XML document idFn(row) names
// and lands the string results under asField.
func (p *Pipeline) JoinXML(idFn func(row mmvalue.Value) string, xpath string, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	xp, err := xmlstore.CompileXPath(xpath)
	if err != nil {
		p.err = err
		return p
	}
	p.stages = append(p.stages, &perRowStage{
		asField:   asField,
		ownedVals: true,
		fetch: func(r mmvalue.Value) []mmvalue.Value {
			var vals []mmvalue.Value
			p.acc.Hop()
			if doc, ok := p.st.XML.Get(p.acc.XMLTx(), idFn(r)); ok {
				for _, s := range xp.SelectValues(doc) {
					vals = append(vals, mmvalue.String(s))
				}
			}
			return vals
		},
	})
	return p
}

// ExpandGraph replaces each row's vertex neighbourhood: for the vertex
// named by vidFn(row), the ids of vertices within k hops over label in
// direction dir land under asField as an array of strings.
func (p *Pipeline) ExpandGraph(vidFn func(row mmvalue.Value) string, k int, dir graph.Dir, label, asField string) *Pipeline {
	if p.err != nil {
		return p
	}
	p.stages = append(p.stages, &perRowStage{
		asField:   asField,
		ownedVals: true,
		fetch: func(r mmvalue.Value) []mmvalue.Value {
			p.acc.Hop()
			hops := p.st.Graph.KHop(p.acc.GraphTx(), graph.VID(vidFn(r)), k, dir, label)
			vals := make([]mmvalue.Value, len(hops))
			for i, h := range hops {
				vals[i] = mmvalue.String(string(h))
			}
			return vals
		},
	})
	return p
}
