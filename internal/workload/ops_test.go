package workload

import (
	"fmt"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/txn"
)

// TestFeedbackPrefixMatchesSprintf pins feedbackPrefix to the
// fmt.Sprintf form the loader's keys use, at the edges of its padding.
func TestFeedbackPrefixMatchesSprintf(t *testing.T) {
	for _, cid := range []int{0, 7, 999_999, 1_000_000} {
		if got, want := feedbackPrefix(cid), fmt.Sprintf("feedback/%06d/", cid); got != want {
			t.Errorf("feedbackPrefix(%d) = %q, want %q", cid, got, want)
		}
	}
}

// storeLog is a session that records which store each accessor call
// reaches.
type storeLog struct {
	session
	stores []string
}

func (l *storeLog) RelTx() *txn.Tx { l.stores = append(l.stores, "rel"); return l.session.RelTx() }
func (l *storeLog) DocTx() *txn.Tx { l.stores = append(l.stores, "doc"); return l.session.DocTx() }
func (l *storeLog) KVTx() *txn.Tx  { l.stores = append(l.stores, "kv"); return l.session.KVTx() }
func (l *storeLog) XMLTx() *txn.Tx { l.stores = append(l.stores, "xml"); return l.session.XMLTx() }
func (l *storeLog) GraphTx() *txn.Tx {
	l.stores = append(l.stores, "graph")
	return l.session.GraphTx()
}

// TestWriteBodiesLockStoresInOrder pins the store order that keeps the
// federation free of cross-store deadlocks (see FederationEngine.write):
// every write body reaches the stores in the order doc → kv → xml →
// graph and never goes back.
func TestWriteBodiesLockStoresInOrder(t *testing.T) {
	rank := map[string]int{"doc": 0, "kv": 1, "xml": 2, "graph": 3}
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 11, 0)
	bodies := []struct {
		name string
		run  func(datagen.Target, session, Params) error
	}{
		{"T1", orderUpdateBody},
		{"T2", newOrderBody},
		{"T3", writeFeedbackBody},
		{"T5", stockTransferBody},
	}
	for i := 0; i < 5; i++ {
		p := gen.Next()
		p.FreshID = gen.NewOrderID(0, 0, i)
		for _, b := range bodies {
			var log storeLog
			err := fx.fed.write(once, func(s session) error {
				log = storeLog{session: s}
				return b.run(fx.fed.st, &log, p)
			})
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if len(log.stores) == 0 {
				t.Fatalf("%s reached no store", b.name)
			}
			for j, st := range log.stores {
				r, ok := rank[st]
				if !ok {
					t.Fatalf("%s reaches the %s store, which has no rank: %v", b.name, st, log.stores)
				}
				if j > 0 && r < rank[log.stores[j-1]] {
					t.Fatalf("%s goes back from %s to %s: %v", b.name, log.stores[j-1], st, log.stores)
				}
			}
		}
	}
}
