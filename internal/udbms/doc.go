// Package udbms is the unified multi-model database engine of UDBench —
// the system-under-test that the paper's benchmark targets. It binds
// the five UDBMS data models (relational, JSON document, property
// graph, key-value, XML) to one transaction manager, giving:
//
//   - cross-model ACID transactions: one lock space, one commit point,
//     so an order update can atomically touch JSON Orders, key-value
//     Feedback and XML Invoice (the paper's running example);
//   - cross-model snapshot reads: a single begin timestamp covers all
//     five models, so analytical queries see one consistent cut;
//   - a pipeline API for multi-model queries that hop between models.
//
// # Vectorized executor
//
// Pipeline queries compile into a push-based chain of operators that
// exchange batches of up to 1024 rows, plain []mmvalue.Value slices,
// instead of single rows, so a scan→limit→count pipeline does one
// interface dispatch per 1024 rows rather than per row. Seeds push
// their predicate into the store's scan (and its index, when one pins
// the predicate). Sorts order row positions by mmvalue.Compare of their
// keys. Group-by aggregates (sum/count/max/avg) fold a column at a
// time: the kept rows' group key codes once, then per aggregate one loop
// picked by its column's kind, native over typed vectors and boxed over
// a vector of values; keys and max winners box only when emitted.
//
// Seed scans stream rows straight out of store memory in batches,
// using pooled scratch buffers so a steady-state query allocates a
// near-constant few hundred bytes regardless of rows scanned. One copy
// rule keeps store rows intact: no stage mutates a row it is pushed. A
// stage that attaches a field (the joins, Unnest) extends a copy of the
// row object — a scratch object from its pooled ring when nothing
// downstream retains rows, else a shallow clone — and GroupBy refills a
// scratch row, cloned for a retaining stage. Rows() deep-clones every
// row, while Count/Each and rows dropped by Limit never pay for a clone.
//
// Equality joins between models either send one store-index probe per
// row (rent) or project the build side onto its key and whole row, and
// find a probe key's matches by its dict code (buy). Against an indexed
// build side a join rents until the probes spent since the side's last
// commit would have paid for a build, then builds once and memoizes the
// projection in a version-keyed cache (joincache.go): every committed
// write bumps a per-store version counter before it becomes visible, so
// an unchanged counter certifies an unchanged build side. A side that keeps changing is only probed;
// read-heavy workloads build once and skip the rebuild entirely.
//
// A plan that is a whole-store, key-value-prefix, graph edge-end or XML
// seed, joins (XML build sides included), Where stages, at most one
// Unnest and a GroupBy reading only seed paths, "<asField>.0.<path>" and
// paths under the Unnest's field runs that prefix over column
// projections (projection.go): per store (and unnested array) and
// version one projection, one vector (typed for ints, floats or
// strings, else of values) and validity bitmap per path read, cached and
// certified like a join's build. A plan reading paths the cached
// projection lacks scans the store for those alone, so each store is
// scanned at most once per version and path (edge ends, which the graph
// lists in map order, are scanned whole again). Join and group keys are
// coded once per column: an int or string column through a Go map, the
// rest by hash. An XML projection reads the trees directly:
// the text of a child parses to a number once per store version. A
// projected Where is a code set: its values are looked up in the
// column's dict once per run, and a row (or unnested element) is kept by
// its code; the values are no part of the projection's cache key.
// GroupBy → SortBy(an aggregate) → Limit(n) builds n group rows.
//
// Every store request the executor issues — seed scan, build-side
// scan, index probe, per-row key-value prefix scan — goes
// through the pipeline's Access: a transaction handle per model and a
// Hop charged per request. DB.Pipeline's is one snapshot with free
// hops. PipelineOver takes the caller's, which is how the federation
// runs the same query definitions over its own stores: each store's
// latest state, a hop per request, and no join cache.
package udbms
