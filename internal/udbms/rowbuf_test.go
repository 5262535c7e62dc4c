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
	db.Pipeline(nil).FromDocuments("c", nil).src.run(func(b *Batch) bool {
		backing = b.rows[:cap(b.rows)]
		batches = append(batches, b.Len())
		return true
	})
	if !slices.Equal(batches, []int{batchCap, 10}) {
		t.Fatalf("batches = %v, want [%d 10]", batches, batchCap)
	}
	if i := allZero(backing); i >= 0 {
		t.Fatalf("slot %d of %d still holds a row after the scan", i, len(backing))
	}
}

// truncSink keeps only the first row of every batch, like a Limit.
type truncSink struct{}

func (truncSink) push(b *Batch) bool { b.truncate(1); return true }
func (truncSink) flush()             {}

// TestAttacherClearsRowsATruncatingSinkHid pins that release clears what
// the attacher wrote, even when downstream shortened the batch it was
// handed.
func TestAttacherClearsRowsATruncatingSinkHid(t *testing.T) {
	a := newAttacher(truncSink{}, "m", rowOwned, false)
	for i := 0; i < 5; i++ {
		a.attach(mmvalue.ObjectOf("id", i), nil)
	}
	a.emit()
	backing := a.out.rows[:cap(a.out.rows)]
	a.release()
	if i := allZero(backing); i >= 0 {
		t.Fatalf("slot %d of the attach scratch still holds a row after release", i)
	}
}
