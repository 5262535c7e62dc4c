package udbms

import (
	"sync"
	"sync/atomic"

	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// joinCache decides, per build side, between renting (index probes)
// and buying (one projection, cached across pipeline runs). It also
// holds the projections of projected plans, which are always bought:
// one per store (prefix and key names) and version, and one more for
// the elements of each array a plan unnests. A plan that needs columns
// the cached projection lacks scans the store for those alone and
// caches the projection with them added; every scan at one version lists
// the same rows in the same order (all but the graph's, whose readers
// build afresh), so the columns line up, and a column never changes once
// cached. JoinStats.Builds counts these column-adding scans too.
//
// A cold join against an indexed build side does not know whether the
// side will stay unchanged long enough for a build to pay off, so it
// rents: the probe rows are charged to an account for the build side
// at its current Version(), and index probes are sent for as long as
// the account stays under Pipeline.probeBelow — the number of probes
// that cost as much as one build. The join that takes the account over
// the threshold buys: it builds once and offers the projection to the
// cache, where it serves every reader until the next commit. A build
// side that keeps changing is only ever probed; a quiet one is built
// once, after its probes have cost as much as a build (rent-then-buy,
// at most twice the cost of knowing the future). Build sides without
// an index are built on every cache miss.
//
// An entry at version v holds either the built projection or the probes
// spent at v without one; a commit resets both by bumping the version.
// Certifying a build for other readers rests on these gates, stated
// once in txn.Shares and txn.Manager.Certifies (the graph store's CSR
// cache rests on the same two):
//
//   - Stores bump a version counter inside the commit hook, after the
//     commit has drawn its timestamp and before its row versions are
//     stamped visible (see Table.Version / Collection.Version). So
//     "counter unchanged across the scan" certifies that no commit
//     touched the build side during it.
//   - The projection is built under the reader's own snapshot (a
//     snapshot at the published watermark when the reader has none) and
//     is certified only when, read after the version, Certifies holds:
//     no commit in flight, the snapshot at the watermark, and a reader
//     that has written nothing.
//   - A reader gets a cached projection only when Shares(reader, snap):
//     with the version unchanged there are no commits between the two
//     snapshots, so both see identical build-side state.
//     Non-transactional readers (latest-committed streams) are served
//     whenever the version matches.
//
// A build that fails the gates is still used by the query that paid
// for it — the build side is scanned at most once per join.
//
// A build whose gates hold at its start is a flight, column-adding
// scans included: a reader that misses at the same version waits for
// it, then looks again, so concurrent first readers scan each (key,
// version, column) once. No waiter can deadlock: it holds no lock while
// it waits (a plan takes its projections before its first scan, a join
// after its seed scan returned), and the builder waits on nothing but
// its own scan, a lock-free read of version chains; its defer ends the
// flight even if the scan panics.
type joinCache struct {
	m       sync.Map   // joinCacheKey -> *joinCacheEntry
	flights sync.Map   // joinCacheKey -> *flight: builds whose gates held at their start
	mu      sync.Mutex // serialises entry replacement

	hits, probeRows, builds, cachedBuilds atomic.Uint64
}

// joinCacheKey identifies a join's build side by store identity
// (pointer) and the field the build keys on, or a projected plan's scan
// by its store, prefix and key names and, when the plan unnests an array
// of its rows, the array's path (storeScan.cacheKey).
type joinCacheKey struct {
	store             any
	field             string
	prefix, keys, arr string
}

// flight is a build in progress at ver; done closes when it ends.
type flight struct {
	ver  uint64
	done chan struct{}
}

type joinCacheEntry struct {
	ver  uint64
	snap txn.TS
	proj *projection // nil while the entry is only a probe account
	// probes counts the probe rows charged at ver without a usable
	// projection.
	probes atomic.Int64
}

// buildSide is what a join or projection needs of its build-side store.
type buildSide interface {
	Version() uint64
	Manager() *txn.Manager
	Len() int
}

// JoinStats counts, since Open, how the executor's equality joins found
// their matches. Each join execution bumps at most one of CacheHits,
// ProbeRows (by its probe rows) and Builds, and so does each column
// projection (projection.go) a plan reads.
type JoinStats struct {
	CacheHits    uint64 // joins and projections served from the cache
	ProbeRows    uint64 // probe rows sent to a build-side index
	Builds       uint64 // store scans into a projection, or into columns added to one
	CachedBuilds uint64 // builds certified and offered to the cache
}

func (c *joinCache) stats() JoinStats {
	return JoinStats{
		CacheHits:    c.hits.Load(),
		ProbeRows:    c.probeRows.Load(),
		Builds:       c.builds.Load(),
		CachedBuilds: c.cachedBuilds.Load(),
	}
}

// get returns the cached projection, and its snapshot, if it is provably
// equivalent to what a fresh build under tx would produce, else nil.
// Lookup only — it never builds.
func (c *joinCache) get(key joinCacheKey, ver uint64, tx *txn.Tx) (*projection, txn.TS) {
	if c == nil {
		return nil, 0
	}
	e, ok := c.m.Load(key)
	if !ok {
		return nil, 0
	}
	ent := e.(*joinCacheEntry)
	if ent.proj == nil || ent.ver != ver || !txn.Shares(tx, ent.snap) {
		return nil, 0
	}
	return ent.proj, ent.snap
}

// project returns s's projection onto paths (and arr, when not nil)
// under key: the cached one when it holds them all, else one scan (and
// hop) for what it lacks (build). On a miss, rent (when not nil) may send
// the caller to index probes instead: project then returns nil.
func (c *joinCache) project(key joinCacheKey, s storeScan, paths []mmvalue.Path, arr *arraySpec, rent func(ver uint64) bool) *projection {
	for {
		ver, tx := s.side.Version(), s.tx()
		base, _ := c.get(key, ver, tx)
		if base == nil && rent != nil && rent(ver) {
			return nil
		}
		if lack, lackArr := base.lacks(paths, arr); base != nil && lack == nil && lackArr == nil {
			c.hits.Add(1)
			return base.view(paths, arr)
		}
		if proj := c.build(key, s, tx, paths, arr); proj != nil {
			return proj.view(paths, arr)
		}
	}
}

// rent charges rows probe rows to key's account at ver and reports
// whether the account, this charge included, is still under below — in
// which case the caller sends index probes. Without a cache the account
// is just rows. A reader whose version observation is already stale
// charges the newer account.
func (c *joinCache) rent(key joinCacheKey, ver uint64, rows, below int) bool {
	if c == nil {
		return rows < below
	}
	var ent *joinCacheEntry
	if e, ok := c.m.Load(key); ok {
		ent = e.(*joinCacheEntry)
	}
	if ent == nil || ent.ver < ver {
		ent = c.install(key, &joinCacheEntry{ver: ver}, true)
	}
	if ent.probes.Add(int64(rows)) >= int64(below) {
		return false
	}
	c.probeRows.Add(uint64(rows))
	return true
}

// build scans s under tx — under a snapshot at the published watermark
// when tx is nil — for what the projection cached under key lacks of
// paths and arr, and offers the projection with them to the cache when
// the gates in the type comment certify it (there is none under
// PipelineOver). A reader they do not certify, or of the graph, scans
// all of paths and arr. build returns nil, having scanned nothing, when
// it waited for another reader's scan at the same version.
func (c *joinCache) build(key joinCacheKey, s storeScan, tx *txn.Tx, paths []mmvalue.Path, arr *arraySpec) *projection {
	if c == nil {
		s.acc.Hop()
		return project(s, tx, paths, arr)
	}
	mgr, ver, reader := s.side.Manager(), s.side.Version(), tx
	if tx == nil {
		tx = mgr.Begin()
		defer tx.Abort()
	}
	var base *projection
	var snap txn.TS
	certified := mgr.Certifies(tx)
	if certified {
		f := &flight{ver: ver, done: make(chan struct{})}
		if in, busy := c.flights.LoadOrStore(key, f); !busy {
			defer func() { c.flights.Delete(key); close(f.done) }()
		} else if in := in.(*flight); in.ver == ver {
			<-in.done
			return nil
		}
		if _, unordered := s.side.(*graph.Store); !unordered {
			base, snap = c.get(key, ver, reader) // read once the flight began: no scan at ver adds to it now
		}
	}
	s.acc.Hop()
	ent := &joinCacheEntry{ver: ver, snap: tx.BeginTS()}
	if base == nil {
		ent.proj = project(s, tx, paths, arr)
	} else { // one version: the new columns line up with base's
		lack, lackArr := base.lacks(paths, arr)
		elems := 0
		if base.elems != nil {
			elems = base.elems.n
		}
		ent.snap, ent.proj = snap, base.with(s.columns(tx, lack, lackArr, base.n, elems))
	}
	c.builds.Add(1)
	if certified && s.side.Version() == ver {
		c.install(key, ent, false)
		c.cachedBuilds.Add(1)
	}
	return ent.proj
}

// install stores ent under key unless the stored entry is newer (or,
// with keepSame, at the same version) and returns the entry left in
// place. Versions only move forward, so a slow reader cannot roll an
// entry back.
func (c *joinCache) install(key joinCacheKey, ent *joinCacheEntry, keepSame bool) *joinCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m.Load(key); ok {
		if old := e.(*joinCacheEntry); old.ver > ent.ver || keepSame && old.ver == ent.ver {
			return old
		}
	}
	c.m.Store(key, ent)
	return ent
}
