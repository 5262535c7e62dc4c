package document

import (
	"fmt"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

func TestFuncFilter(t *testing.T) {
	c := newTestStore().Collection("x")
	c.Insert(nil, mmvalue.MustParseJSON(`{"_id":"a","items":[{"q":1},{"q":5}]}`))
	c.Insert(nil, mmvalue.MustParseJSON(`{"_id":"b","items":[{"q":2}]}`))
	f := Func("any q > 3", func(doc mmvalue.Value) bool {
		items, _ := mmvalue.ParsePath("items").LookupOr(doc, mmvalue.Null).AsArray()
		for _, it := range items {
			if q, _ := it.MustObject().GetOr("q", mmvalue.Int(0)).AsFloat(); q > 3 {
				return true
			}
		}
		return false
	})
	if n := len(c.Find(nil, f)); n != 1 {
		t.Errorf("func filter matched %d", n)
	}
	if s := f.String(); s != "{$func: any q > 3}" {
		t.Errorf("func filter string = %s", s)
	}
}

func TestIndexAfterDeleteFiltersTombstones(t *testing.T) {
	c := newTestStore().Collection("x")
	c.CreateIndex("k")
	for i := 0; i < 10; i++ {
		c.Insert(nil, mmvalue.ObjectOf("_id", fmt.Sprintf("d%d", i), "k", i%2))
	}
	c.Delete(nil, "d0")
	c.Delete(nil, "d2")
	docs := c.Find(nil, Eq("k", 0))
	if len(docs) != 3 {
		t.Errorf("indexed find after deletes = %d, want 3", len(docs))
	}
}

func TestFindUnderTransactionSeesOwnWrites(t *testing.T) {
	s := newTestStore()
	c := s.Collection("x")
	c.Insert(nil, mmvalue.ObjectOf("_id", "a", "v", 1))
	err := s.Manager().RunWith(0, func(tx *txn.Tx) error {
		if err := c.Insert(tx, mmvalue.ObjectOf("_id", "b", "v", 2)); err != nil {
			return err
		}
		docs := c.Find(tx, nil)
		if len(docs) != 2 {
			return fmt.Errorf("tx sees %d docs, want 2", len(docs))
		}
		if err := c.SetPath(tx, "a", "v", mmvalue.Int(10)); err != nil {
			return err
		}
		doc, _ := c.Get(tx, "a")
		if v, _ := doc.MustObject().Get("v"); !mmvalue.Equal(v, mmvalue.Int(10)) {
			return fmt.Errorf("tx does not see own update")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
