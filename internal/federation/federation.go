// Package federation implements the polyglot-persistence baseline the
// UDBMS benchmark compares against: five independent single-model
// stores, each with its own transaction manager (its own lock space,
// timestamps and commit point), glued together by an application-level
// two-phase-commit coordinator; joins run client-side, on the same
// pipeline executor as the unified engine's but over these stores (see
// udbms.PipelineOver).
//
// Two structural costs distinguish it from the unified engine:
//
//  1. Every store operation pays a simulated network hop (HopLatency) —
//     a federation talks to separate server processes;
//  2. Cross-model transactions run 2PC over per-store local
//     transactions: locks are held across the full prepare+commit
//     rounds, and a coordinator failure between per-store commits
//     leaves the federation in a mixed state (an atomicity violation
//     the benchmark's consistency experiment counts).
//
// Reads have no federation-wide snapshot: each store serves its own
// latest state, so cross-model reads can observe torn states that the
// unified engine never shows.
package federation

import (
	"errors"
	"fmt"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/kv"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// ErrCoordinatorCrash is returned when failure injection stops the
// coordinator between per-store commits; some stores committed, some
// aborted.
var ErrCoordinatorCrash = errors.New("federation: coordinator crashed mid-commit")

// Federation bundles five independent single-model stores.
type Federation struct {
	// HopLatency is the simulated per-operation network delay paid on
	// every store access (0 disables the simulation).
	HopLatency time.Duration

	// CrashAfterNCommits, when >= 0, makes the next federated commit
	// stop after that many per-store commits, simulating a coordinator
	// crash (-1 disables). It auto-resets to -1 after firing.
	CrashAfterNCommits int

	relMgr, docMgr, graphMgr, kvMgr, xmlMgr *txn.Manager

	Relational *relational.DB
	Docs       *document.Store
	Graph      *graph.Store
	KV         *kv.Store
	XML        *xmlstore.Store
}

// Open creates an empty federation.
func Open() *Federation {
	f := &Federation{
		CrashAfterNCommits: -1,
		relMgr:             txn.NewManager(),
		docMgr:             txn.NewManager(),
		graphMgr:           txn.NewManager(),
		kvMgr:              txn.NewManager(),
		xmlMgr:             txn.NewManager(),
	}
	f.Relational = relational.NewDB(f.relMgr)
	f.Docs = document.NewStore("doc", f.docMgr)
	f.Graph = graph.NewStore("graph", f.graphMgr)
	f.KV = kv.NewStore("kv", f.kvMgr)
	f.XML = xmlstore.NewStore("xml", f.xmlMgr)
	return f
}

// Stores hands out the five model stores as the bundle datasets load
// into and op bodies run against.
func (f *Federation) Stores() datagen.Target {
	return datagen.Target{Relational: f.Relational, Docs: f.Docs, Graph: f.Graph, KV: f.KV, XML: f.XML}
}

// LockStats sums lock-table telemetry across the five per-store
// managers.
func (f *Federation) LockStats() txn.LockStats {
	out := f.relMgr.LockStats()
	for _, m := range []*txn.Manager{f.docMgr, f.graphMgr, f.kvMgr, f.xmlMgr} {
		out = out.Merge(m.LockStats())
	}
	return out
}

// Hop simulates one network round trip to a store. Exported so
// workloads can charge read paths explicitly.
func (f *Federation) Hop() {
	if f.HopLatency > 0 {
		time.Sleep(f.HopLatency)
	}
}

// FTx is a federated transaction: a lazily started local transaction
// per store, committed with two-phase commit.
type FTx struct {
	f      *Federation
	locals map[string]*txn.Tx
	order  []string
}

// Begin starts a federated transaction.
func (f *Federation) Begin() *FTx {
	return &FTx{f: f, locals: make(map[string]*txn.Tx)}
}

func (t *FTx) local(store string, mgr *txn.Manager) *txn.Tx {
	if tx, ok := t.locals[store]; ok {
		return tx
	}
	t.f.Hop() // BEGIN round trip
	tx := mgr.Begin()
	t.locals[store] = tx
	t.order = append(t.order, store)
	return tx
}

// Relational returns the local transaction on the relational store.
func (t *FTx) Relational() *txn.Tx { return t.local("relational", t.f.relMgr) }

// Docs returns the local transaction on the document store.
func (t *FTx) Docs() *txn.Tx { return t.local("doc", t.f.docMgr) }

// Graph returns the local transaction on the graph store.
func (t *FTx) Graph() *txn.Tx { return t.local("graph", t.f.graphMgr) }

// KV returns the local transaction on the key-value store.
func (t *FTx) KV() *txn.Tx { return t.local("kv", t.f.kvMgr) }

// XML returns the local transaction on the XML store.
func (t *FTx) XML() *txn.Tx { return t.local("xml", t.f.xmlMgr) }

// Commit runs two-phase commit: one prepare hop per store (all local
// work already holds locks), then one commit hop per store. If failure
// injection crashes the coordinator mid-commit, already-committed
// stores stay committed while the rest abort — the atomicity violation
// of a blocking 2PC without recovery.
func (t *FTx) Commit() error {
	// Prepare phase: one round trip per participant; local work is
	// already durable in memory, so prepare always votes yes here.
	for range t.order {
		t.f.Hop()
	}
	// Commit phase.
	committed := 0
	crashAt := t.f.CrashAfterNCommits
	for _, store := range t.order {
		if crashAt >= 0 && committed == crashAt {
			t.f.CrashAfterNCommits = -1
			for _, rest := range t.order[committed:] {
				t.locals[rest].Abort()
			}
			return fmt.Errorf("%w after %d/%d participants", ErrCoordinatorCrash, committed, len(t.order))
		}
		t.f.Hop()
		if _, err := t.locals[store].Commit(); err != nil {
			// Local commit can only fail on a closed transaction;
			// treat as partial failure like a crash.
			for _, rest := range t.order[committed+1:] {
				t.locals[rest].Abort()
			}
			return fmt.Errorf("federation: participant %s failed: %w", store, err)
		}
		committed++
	}
	return nil
}

// Abort rolls back every local transaction.
func (t *FTx) Abort() {
	for _, store := range t.order {
		t.f.Hop()
		t.locals[store].Abort()
	}
}

// RunTx executes fn in a federated transaction with 2PC commit,
// re-running deadlock victims up to retries times under the same policy
// as a single-manager transaction (txn.Retry; txn.DefaultRetries is the
// usual budget, 0 surfaces the first abort). A coordinator crash is a
// partial commit, not a deadlock, so it is returned without a retry.
func (f *Federation) RunTx(retries int, fn func(t *FTx) error) error {
	return txn.Retry(retries, func() error {
		ftx := f.Begin()
		err := fn(ftx)
		if err != nil {
			ftx.Abort()
			return err
		}
		return ftx.Commit()
	})
}
