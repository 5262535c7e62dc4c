package federation

import (
	"errors"
	"testing"

	"udbench/internal/consistency"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// TestCrashDetectedByAtomicityChecker ties the federation's 2PC crash
// injection to the benchmark's atomicity metric: the partially
// committed state must be flagged as a cross-model atomicity violation
// by the consistency checker.
func TestCrashDetectedByAtomicityChecker(t *testing.T) {
	f := seedFed(t)
	checker := consistency.NewAtomicityChecker()

	// The transaction intends to install "version 1" of both the doc
	// and the kv resource.
	checker.RegisterTxn("txn-1", map[string]uint64{
		"doc/orders/o1":    1,
		"kv/feedback/1/o1": 1,
	})

	f.CrashAfterNCommits = 1
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		if err := f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "total", mmvalue.Float(777)); err != nil {
			return err
		}
		return f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 9))
	})
	if !errors.Is(err, ErrCoordinatorCrash) {
		t.Fatalf("expected coordinator crash, got %v", err)
	}

	// Observe the post-crash state: which intended writes landed?
	observed := map[string]uint64{}
	doc, _ := f.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); mmvalue.Equal(v, mmvalue.Float(777)) {
		observed["doc/orders/o1"] = 1
	}
	fb, _ := f.KV.Get(nil, "feedback/1/o1")
	if v, _ := fb.MustObject().Get("rating"); mmvalue.Equal(v, mmvalue.Int(9)) {
		observed["kv/feedback/1/o1"] = 1
	}

	torn := checker.ObserveSnapshot(observed)
	if len(torn) != 1 || torn[0] != "txn-1" {
		t.Fatalf("atomicity checker missed the partial commit: %v (observed %v)", torn, observed)
	}
	if checker.Violations() != 1 {
		t.Errorf("violations = %d", checker.Violations())
	}
}

// TestCrashBeforeAnyCommitIsAtomic verifies that a coordinator crash
// before the first participant commit aborts everything — no
// violation.
func TestCrashBeforeAnyCommitIsAtomic(t *testing.T) {
	f := seedFed(t)
	f.CrashAfterNCommits = 0
	err := f.RunTx(txn.DefaultRetries, func(ftx *FTx) error {
		f.Docs.Collection("orders").SetPath(ftx.Docs(), "o1", "total", mmvalue.Float(888))
		return f.KV.Put(ftx.KV(), "feedback/1/o1", mmvalue.ObjectOf("rating", 8))
	})
	if !errors.Is(err, ErrCoordinatorCrash) {
		t.Fatalf("err = %v", err)
	}
	doc, _ := f.Docs.Collection("orders").Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); mmvalue.Equal(v, mmvalue.Float(888)) {
		t.Error("doc committed despite crash at 0")
	}
	fb, _ := f.KV.Get(nil, "feedback/1/o1")
	if v, _ := fb.MustObject().Get("rating"); mmvalue.Equal(v, mmvalue.Int(8)) {
		t.Error("kv committed despite crash at 0")
	}
}
