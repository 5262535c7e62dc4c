// Package udbench is a from-scratch reproduction of "Towards
// Benchmarking Multi-Model Databases" (Jiaheng Lu, CIDR 2017): the
// UDBMS benchmark for unified multi-model database systems, together
// with the systems under test it needs — a unified five-model engine
// (relational, JSON document, property graph, key-value, XML) with
// cross-model ACID transactions, and a polyglot-federation baseline
// with two-phase commit.
//
// The package tree:
//
//	internal/core        experiment harness (one runner per table/figure)
//	internal/udbms       the unified multi-model engine (system under test)
//	internal/federation  polyglot baseline: five stores + 2PC + hops
//	internal/backend     comparative one-model leg: relbe shreds the dataset
//	                     into a private relational.DB (-engine relational)
//	internal/relational  relational engine (schemas, indexes, joins)
//	internal/document    JSON document store (filters, path indexes)
//	internal/graph       property graph store (k-hop, Dijkstra, PageRank)
//	internal/kv          ordered key-value store (skip list, prefix scans)
//	internal/xmlstore    XML store (parser, XPath subset, validation)
//	internal/txn         timestamps, 2PL + deadlock detection, version chains
//	internal/replica     primary/replica lag simulator (consistency substrate)
//	internal/datagen     deterministic Figure-1 dataset generator
//	internal/workload    query table Q1–Q13, T1–T5 and suite op bodies, one
//	                     native engine adapter, drivers (3.4k non-test lines)
//	internal/mmschema    schema inference, evolution ops, query compatibility
//	internal/convert     model conversions with gold-standard fidelity
//	internal/consistency staleness / RYW / monotonic / atomicity metrics
//	internal/metrics     histograms, percentiles, result tables
//	internal/mmvalue     the shared dynamic value system
//	cmd/udbench          the benchmark CLI
//
// Run the whole benchmark:
//
//	go run ./cmd/udbench run all -quick
//
// bench/ holds the repo's own benchmark (BENCHMARK.json); bench_test.go
// keeps only the scaling curve CI gates on.
//
// # Query execution model
//
// Cross-model queries execute through udbms.Pipeline, a vectorized
// push-based operator chain built lazily and pulled only by a terminal
// (Rows, Count, Each). Operators exchange batches of up to 1024 row
// references, not single rows, so dynamic dispatch costs one virtual
// call per batch and the inner loops are monomorphic:
//
//   - Source operators emit batches straight out of shared store
//     memory through pooled scratch buffers — no row is cloned during
//     execution; Rows copies on collect, Count/Each never copy.
//   - Seed predicates (relational.Expr, document.Filter) run inside
//     the store scan, through an index when one pins them; Limit
//     short-circuits upstream operators, including the store scans
//     themselves. Sort and join keys are extracted into
//     typed vectors (int64/float64/string) when a column is
//     kind-homogeneous, falling back to generic mmvalue comparisons
//     for mixed columns.
//   - JoinDocuments/JoinRelational are hash joins keyed by mmvalue
//     hashes with exact Equal verification. When the build side has a
//     path/column index (or the join column is the primary key), a
//     join sends per-row index probes until the probes spent since the
//     side's last commit would have paid for a build, then builds once;
//     built tables are memoized across queries in a version-keyed
//     cache: stores bump a version counter before a commit's rows
//     become visible, so an unchanged counter certifies an unchanged
//     build side.
//   - GroupBy/Aggregate folds batches into a hash of accumulators
//     (sum/count/min/max/avg) keyed by any row expression.
//   - Every store request the executor issues goes through an
//     accessor (udbms.Access): under DB.Pipeline one snapshot and free
//     requests; under PipelineOver — how the federation runs the same
//     query definitions — each store's latest state, one hop per
//     request and no join cache. A randomized equivalence property
//     test pins the executor against a reference row-at-a-time
//     interpreter.
//
// # Concurrency architecture
//
// The OLTP path is built to scale with cores; the harness must measure
// engine architecture, not its own mutex convoys:
//
//   - Lock table (internal/txn): striped into 64 shards by resource-key
//     hash, each with its own mutex and condition variable. Acquires of
//     unrelated records never contend and a release wakes only its own
//     shard. There is one lock mode, exclusive: only writers lock.
//   - Background deadlock detection: a blocked acquire only records
//     its wait-for edge; a sweeper goroutine — spawned when the first
//     waiter appears, exiting when the graph drains — runs one DFS
//     over the whole cross-shard graph per interval (1ms,
//     txn.DefaultDetectorInterval) and marks the youngest transaction
//     of each cycle as the victim. Victim latency is bounded by the
//     interval; a blocked acquire no longer pays a graph traversal.
//   - Interned lock keys: every record carries its precomputed
//     txn.ResourceKey (name + shard), built once when the record is
//     created, so steady-state acquire/release performs zero
//     allocations — no per-lock string concatenation or hashing.
//   - Snapshot reads never lock (MVCC version chains); writers hold
//     exclusive locks to commit (strict 2PL). The commit point is
//     epoch-based: a commit stamps its versions at a timestamp from an
//     atomic sequence (safe — it still holds its exclusive locks),
//     then publishes by raising a watermark once all smaller
//     timestamps have published. Begin snapshots at the watermark with
//     a single atomic load, so cross-model snapshots are never torn
//     and neither Begin nor Commit takes a mutex — the old
//     Manager.commitMu serialization point is gone. Commit returns
//     only after publishing, preserving read-your-writes.
//   - Measurement (internal/metrics, internal/workload): histograms
//     use fixed-size logarithmic bucket arrays, and the driver gives
//     every worker a private recorder merged only after the run —
//     recording an operation never takes a shared lock.
//   - Driver modes (internal/workload): the driver is closed-loop by
//     default (each worker issues its next op when the previous one
//     returns — deterministic per-client sequences, load throttled to
//     the engine) and open-loop on request (DriverConfig.Mode), where
//     an ArrivalSchedule generates Poisson or fixed-interval arrival
//     times at a target rate — lazily, so a run may be count-bounded
//     (Clients*OpsPerClient) or time-bounded (DriverConfig.Duration,
//     with a drain deadline that drops rather than serves an unbounded
//     backlog). Open-loop ops record two latencies: service
//     (start→done) and intended (scheduled arrival→done), aggregate
//     and per op class, so queueing delay behind a saturated engine is
//     measured instead of omitted — the coordinated-omission fix.
//     Every run stamps its T2 order ids with a process-unique nonce,
//     so sweeps re-running one config on one store never collide. The
//     f5 experiment (internal/core) climbs a geometric rate ladder on
//     top of this and reports each engine's saturation knee.
//     docs/BENCHMARKING.md covers the methodology.
//   - Lock telemetry (internal/txn): every shard counts acquires,
//     blocked acquires and blocked wall time in atomic counters (a
//     snapshot takes no shard mutex), and the background detector
//     counts sweeps, cycles
//     found and victims marked, and reports its sweep interval.
//     Manager.LockStats() snapshots all of it; the driver reports the
//     per-run delta through `udbench mix -json` so a contention
//     regression is visible in the run's own report.
package udbench
