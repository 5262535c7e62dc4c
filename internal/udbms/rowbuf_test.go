package udbms

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// allZero reports the first slot of backing still holding a value, or
// -1: a pooled buffer must not pin a store row in any slot.
func allZero(backing []mmvalue.Value) int {
	for i, v := range backing {
		if !reflect.ValueOf(v).IsZero() {
			return i
		}
	}
	return -1
}

// TestSeedScanClearsEveryWrittenSlot scans one full batch and then a
// short one: the buffer goes back to the pool clear up to the longest
// batch, not just the last one.
func TestSeedScanClearsEveryWrittenSlot(t *testing.T) {
	db := Open()
	c := db.Docs.Collection("c")
	n := batchCap + 10
	if err := db.Manager().Bulk(n, func(tx *txn.Tx, i int) error {
		return c.Insert(tx, mmvalue.ObjectOf("_id", fmt.Sprintf("d%05d", i)))
	}); err != nil {
		t.Fatal(err)
	}
	var backing []mmvalue.Value
	var batches []int
	db.Pipeline(nil).FromDocuments("c", nil).src.run(func(rows []mmvalue.Value) bool {
		backing = rows[:cap(rows)]
		batches = append(batches, len(rows))
		return true
	})
	if !slices.Equal(batches, []int{batchCap, 10}) {
		t.Fatalf("batches = %v, want [%d 10]", batches, batchCap)
	}
	if i := allZero(backing); i >= 0 {
		t.Fatalf("slot %d of %d still holds a row after the scan", i, len(backing))
	}
}

// discardSink drops every batch it is pushed.
type discardSink struct{}

func (discardSink) push([]mmvalue.Value) bool { return true }
func (discardSink) flush()                    {}

// TestAttacherClearsEveryWrittenSlot pins that release clears every slot
// the attacher wrote, not just its last batch: it emits 5 rows, then 2,
// so the slots past the last batch hold rows only the first one wrote.
func TestAttacherClearsEveryWrittenSlot(t *testing.T) {
	a := newAttacher(discardSink{}, "m", false)
	for _, n := range []int{5, 2} {
		for i := 0; i < n; i++ {
			a.attach(mmvalue.ObjectOf("id", i), nil)
		}
		a.emit()
	}
	backing := a.out[:cap(a.out)]
	a.release()
	if i := allZero(backing); i >= 0 {
		t.Fatalf("slot %d of the attach scratch still holds a row after release", i)
	}
}
