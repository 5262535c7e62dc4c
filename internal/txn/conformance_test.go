package txn_test

import (
	"strconv"
	"testing"
	"time"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/kv"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// model drives one store through the record-layer contract: records
// are keyed by string and carry one integer.
type model struct {
	name   string
	mgr    *txn.Manager
	insert func(tx *txn.Tx, key string, n int64) error // new record
	update func(tx *txn.Tx, key string, n int64) error // replace a live record
	get    func(tx *txn.Tx, key string) (int64, bool)
}

func intOf(v mmvalue.Value, ok bool) (int64, bool) {
	if !ok {
		return 0, false
	}
	n, _ := v.MustObject().Get("n")
	return n.MustInt(), true
}

func xmlOf(n *xmlstore.Node, ok bool) (int64, bool) {
	if !ok {
		return 0, false
	}
	s, _ := n.Attr("n")
	i, _ := strconv.ParseInt(s, 10, 64)
	return i, true
}

func fiveStores() []model {
	var ms []model

	mgr := txn.NewManager()
	tab := relational.NewTable("t", relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeString},
		relational.Column{Name: "n", Type: relational.TypeInt}), mgr)
	ms = append(ms, model{
		name: "relational", mgr: mgr,
		insert: func(tx *txn.Tx, k string, n int64) error { return tab.Insert(tx, mmvalue.ObjectOf("id", k, "n", n)) },
		update: func(tx *txn.Tx, k string, n int64) error { return tab.ApplyPut(tx, mmvalue.ObjectOf("id", k, "n", n)) },
		get:    func(tx *txn.Tx, k string) (int64, bool) { return intOf(tab.Get(tx, k)) },
	})

	mgr = txn.NewManager()
	coll := document.NewStore("doc", mgr).Collection("c")
	ms = append(ms, model{
		name: "document", mgr: mgr,
		insert: func(tx *txn.Tx, k string, n int64) error { return coll.Insert(tx, mmvalue.ObjectOf("_id", k, "n", n)) },
		update: func(tx *txn.Tx, k string, n int64) error { return coll.SetPath(tx, k, "n", mmvalue.Int(n)) },
		get:    func(tx *txn.Tx, k string) (int64, bool) { return intOf(coll.Get(tx, k)) },
	})

	mgr = txn.NewManager()
	kvs := kv.NewStore("kv", mgr)
	put := func(tx *txn.Tx, k string, n int64) error { return kvs.Put(tx, k, mmvalue.ObjectOf("n", n)) }
	ms = append(ms, model{
		name: "kv", mgr: mgr,
		insert: put,
		update: put,
		get:    func(tx *txn.Tx, k string) (int64, bool) { return intOf(kvs.Get(tx, k)) },
	})

	mgr = txn.NewManager()
	xs := xmlstore.NewStore("xml", mgr)
	elem := func(n int64) *xmlstore.Node {
		return xmlstore.NewElement("r", xmlstore.Attr{Name: "n", Value: strconv.FormatInt(n, 10)})
	}
	ms = append(ms, model{
		name: "xmlstore", mgr: mgr,
		insert: func(tx *txn.Tx, k string, n int64) error { return xs.Put(tx, k, elem(n)) },
		update: func(tx *txn.Tx, k string, n int64) error {
			return xs.Update(tx, k, func(*xmlstore.Node) (*xmlstore.Node, error) { return elem(n), nil })
		},
		get: func(tx *txn.Tx, k string) (int64, bool) { return xmlOf(xs.Get(tx, k)) },
	})

	mgr = txn.NewManager()
	g := graph.NewStore("g", mgr)
	ms = append(ms, model{
		name: "graph", mgr: mgr,
		insert: func(tx *txn.Tx, k string, n int64) error {
			return g.AddVertex(tx, graph.VID(k), "v", mmvalue.ObjectOf("n", n))
		},
		update: func(tx *txn.Tx, k string, n int64) error {
			return g.SetVertexProps(tx, graph.VID(k), func(mmvalue.Value) (mmvalue.Value, error) {
				return mmvalue.ObjectOf("n", n), nil
			})
		},
		get: func(tx *txn.Tx, k string) (int64, bool) {
			v, ok := g.GetVertex(tx, graph.VID(k))
			return intOf(v.Props, ok)
		},
	})
	return ms
}

// TestRecordLayerConformance runs one scripted interleaving against all
// five stores: whatever the model, a record behaves the same under
// snapshots, own writes, rollback, trimming, lock waits
// and auto-commit.
func TestRecordLayerConformance(t *testing.T) {
	for _, m := range fiveStores() {
		t.Run(m.name, func(t *testing.T) {
			want := func(step string, tx *txn.Tx, key string, n int64, live bool) {
				t.Helper()
				if got, ok := m.get(tx, key); ok != live || got != n {
					t.Fatalf("%s: get(%q) = (%d, %v), want (%d, %v)", step, key, got, ok, n, live)
				}
			}
			must := func(step string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}

			// Auto-commit: with tx == nil every operation is its own
			// transaction and is visible to the next.
			must("auto insert", m.insert(nil, "k", 1))
			want("auto insert", nil, "k", 1, true)

			// A snapshot does not see later commits; latest does.
			reader := m.mgr.Begin()
			must("auto update", m.update(nil, "k", 2))
			want("snapshot", reader, "k", 1, true)
			want("latest", nil, "k", 2, true)

			// Read-your-own-writes, invisible to everyone else.
			tx := m.mgr.Begin()
			must("tx update", m.update(tx, "k", 3))
			want("own write", tx, "k", 3, true)
			want("uncommitted is private", nil, "k", 2, true)

			// Rollback restores the prior version.
			tx.Abort()
			want("after rollback", nil, "k", 2, true)

			// A later write is seen by new readers only.
			must("auto rewrite", m.update(nil, "k", 4))
			want("rewritten", nil, "k", 4, true)
			want("snapshot outlives rewrite", reader, "k", 1, true)

			// Once the reader ends, the next write trims every version
			// below the newest committed one: a read at the reader's
			// snapshot finds nothing, one at the rewrite's finds it.
			gone, kept := reader.BeginTS(), m.mgr.Published()
			reader.Abort()
			must("trimming rewrite", m.update(nil, "k", 5))
			want("trimmed", m.mgr.ReaderAt(gone), "k", 0, false)
			want("newest committed kept", m.mgr.ReaderAt(kept), "k", 4, true)
			want("after trim", nil, "k", 5, true)

			// Lock wait, then re-check: an update that queues behind an
			// uncommitted insert must decide on the state it finds once
			// the lock is granted, not the one it saw before waiting.
			ins := m.mgr.Begin()
			must("pending insert", m.insert(ins, "later", 5))
			waits := m.mgr.LockStats().Waits
			updated := make(chan error, 1)
			go func() { updated <- m.update(nil, "later", 6) }()
			for m.mgr.LockStats().Waits == waits {
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := ins.Commit(); err != nil {
				t.Fatal(err)
			}
			must("queued update", <-updated)
			want("update after lock wait", nil, "later", 6, true)
		})
	}
}
