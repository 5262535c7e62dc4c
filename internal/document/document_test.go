package document

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

func newTestStore() *Store {
	return NewStore("doc", txn.NewManager())
}

func orderDoc(id string, cid int64, total float64, items ...string) mmvalue.Value {
	arr := make([]mmvalue.Value, len(items))
	for i, it := range items {
		arr[i] = mmvalue.ObjectOf("sku", it, "qty", 1)
	}
	return mmvalue.ObjectOf(
		"_id", id,
		"customer_id", cid,
		"total", total,
		"status", "open",
		"items", mmvalue.Array(arr...),
		"ship", map[string]any{"city": "hki", "days": 3},
	)
}

func TestCollectionAutoCreate(t *testing.T) {
	s := newTestStore()
	c1 := s.Collection("orders")
	c2 := s.Collection("orders")
	if c1 != c2 {
		t.Error("Collection should return the same instance")
	}
	s.Collection("products")
	names := s.CollectionNames()
	if strings.Join(names, ",") != "orders,products" {
		t.Errorf("CollectionNames = %v", names)
	}
	if s.Name() != "doc" || s.Manager() == nil {
		t.Error("store identity accessors broken")
	}
}

func TestInsertGetRules(t *testing.T) {
	c := newTestStore().Collection("orders")
	if err := c.Insert(nil, orderDoc("o1", 1, 10.5, "a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(nil, orderDoc("o1", 2, 3, "b")); err == nil {
		t.Error("duplicate _id should fail")
	}
	if err := c.Insert(nil, mmvalue.Int(5)); err == nil {
		t.Error("non-object should fail")
	}
	if err := c.Insert(nil, mmvalue.ObjectOf("x", 1)); err == nil {
		t.Error("missing _id should fail")
	}
	if err := c.Insert(nil, mmvalue.ObjectOf("_id", 5)); err == nil {
		t.Error("non-string _id should fail")
	}
	if err := c.Insert(nil, mmvalue.ObjectOf("_id", "")); err == nil {
		t.Error("empty _id should fail")
	}
	doc, ok := c.Get(nil, "o1")
	if !ok {
		t.Fatal("Get failed")
	}
	if v, _ := mmvalue.ParsePath("ship.city").Lookup(doc); !mmvalue.Equal(v, mmvalue.String("hki")) {
		t.Error("nested value lost")
	}
	if _, ok := c.Get(nil, "zz"); ok {
		t.Error("phantom doc")
	}
}

func TestUpdateAndPathOps(t *testing.T) {
	c := newTestStore().Collection("orders")
	c.Insert(nil, orderDoc("o1", 1, 10, "a"))
	if err := c.SetPath(nil, "o1", "status", mmvalue.String("shipped")); err != nil {
		t.Fatal(err)
	}
	doc, _ := c.Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("status").Lookup(doc); !mmvalue.Equal(v, mmvalue.String("shipped")) {
		t.Error("SetPath lost")
	}
	if err := c.SetPath(nil, "o1", "ship.tracking.code", mmvalue.String("X1")); err != nil {
		t.Fatal(err)
	}
	doc, _ = c.Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("ship.tracking.code").Lookup(doc); !mmvalue.Equal(v, mmvalue.String("X1")) {
		t.Error("deep SetPath lost")
	}
	// _id change rejected.
	err := c.Update(nil, "o1", func(d mmvalue.Value) (mmvalue.Value, error) {
		d.MustObject().Set("_id", mmvalue.String("o9"))
		return d, nil
	})
	if err == nil {
		t.Error("changing _id should fail")
	}
	if err := c.Update(nil, "nope", func(d mmvalue.Value) (mmvalue.Value, error) { return d, nil }); err == nil {
		t.Error("update missing doc should fail")
	}
}

func TestDeleteAndCount(t *testing.T) {
	c := newTestStore().Collection("orders")
	for i := 0; i < 5; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%d", i), int64(i), float64(i)))
	}
	if c.Count() != 5 {
		t.Fatalf("Count = %d", c.Count())
	}
	c.Delete(nil, "o2")
	if c.Count() != 4 {
		t.Errorf("Count after delete = %d", c.Count())
	}
	if err := c.Delete(nil, "missing"); err != nil {
		t.Errorf("delete missing: %v", err)
	}
}

func TestFilters(t *testing.T) {
	c := newTestStore().Collection("orders")
	c.Insert(nil, orderDoc("o1", 1, 10, "apple", "pear"))
	c.Insert(nil, orderDoc("o2", 2, 50, "apple"))
	c.Insert(nil, orderDoc("o3", 1, 99, "fig"))
	cases := []struct {
		f    Filter
		want int
	}{
		{Eq("customer_id", 1), 2},
		{Everything(), 3},
		{Eq("missing", nil), 3}, // missing path matches eq-null
		{Eq("missing", "x"), 0}, // but not eq-non-null
		{Eq("ship.city", "hki"), 3},
	}
	for _, tc := range cases {
		if got := len(c.Find(nil, tc.f)); got != tc.want {
			t.Errorf("%s matched %d, want %d", tc.f, got, tc.want)
		}
	}
	// Nil filter counts all.
	if got := len(c.Find(nil, nil)); got != 3 {
		t.Errorf("nil filter = %d", got)
	}
	// Filter strings render.
	if s := Eq("a", 1).String(); !strings.Contains(s, "$eq") {
		t.Errorf("filter string %q missing $eq", s)
	}
}

func TestFindClones(t *testing.T) {
	c := newTestStore().Collection("orders")
	for i := 1; i <= 6; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%d", i), int64(i%2), float64(i*10)))
	}
	docs := c.Find(nil, Eq("_id", "o1"))
	docs[0].MustObject().Set("total", mmvalue.Float(-1))
	re, _ := c.Get(nil, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(re); mmvalue.Equal(v, mmvalue.Float(-1)) {
		t.Error("Find result mutation leaked")
	}
}

func TestPathIndexUseAndCorrectness(t *testing.T) {
	c := newTestStore().Collection("orders")
	for i := 0; i < 50; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%02d", i), int64(i%5), float64(i)))
	}
	if err := c.CreateIndex("customer_id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("customer_id"); err == nil {
		t.Error("duplicate index should fail")
	}
	if !c.HasIndex("customer_id") || c.HasIndex("zz") {
		t.Error("HasIndex wrong")
	}
	docs := c.Find(nil, Eq("customer_id", 3))
	if len(docs) != 10 {
		t.Fatalf("index find got %d, want 10", len(docs))
	}
	// Update moves doc between buckets; stale entries must be filtered.
	c.SetPath(nil, "o03", "customer_id", mmvalue.Int(4))
	if got := len(c.Find(nil, Eq("customer_id", 3))); got != 9 {
		t.Errorf("after move, bucket 3 = %d, want 9", got)
	}
	if got := len(c.Find(nil, Eq("customer_id", 4))); got != 11 {
		t.Errorf("after move, bucket 4 = %d, want 11", got)
	}
	if got := len(c.Find(nil, Eq("customer_id", 4))); got != 11 {
		t.Errorf("Find via index = %d, want 11", got)
	}
}

func TestSnapshotReadsDuringConcurrentWrites(t *testing.T) {
	s := newTestStore()
	c := s.Collection("orders")
	c.Insert(nil, orderDoc("o1", 1, 10))
	reader := s.Manager().Begin()
	c.SetPath(nil, "o1", "total", mmvalue.Float(999))
	c.Insert(nil, orderDoc("o2", 2, 20))
	// Snapshot still sees old world.
	doc, _ := c.Get(reader, "o1")
	if v, _ := mmvalue.ParsePath("total").Lookup(doc); !mmvalue.Equal(v, mmvalue.Float(10)) {
		t.Errorf("snapshot total = %s", v)
	}
	if _, ok := c.Get(reader, "o2"); ok {
		t.Error("snapshot sees future insert")
	}
	if n := len(c.Find(reader, nil)); n != 1 {
		t.Errorf("snapshot count = %d", n)
	}
	reader.Abort()
}

func TestCrossCollectionTransaction(t *testing.T) {
	s := newTestStore()
	orders := s.Collection("orders")
	products := s.Collection("products")
	products.Insert(nil, mmvalue.ObjectOf("_id", "p1", "stock", 5))
	err := s.Manager().RunWith(3, func(tx *txn.Tx) error {
		if err := orders.Insert(tx, orderDoc("o1", 1, 10, "p1")); err != nil {
			return err
		}
		return products.Update(tx, "p1", func(d mmvalue.Value) (mmvalue.Value, error) {
			o := d.MustObject()
			st, _ := o.Get("stock")
			o.Set("stock", mmvalue.Int(st.MustInt()-1))
			return d, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := products.Get(nil, "p1")
	if v, _ := p.MustObject().Get("stock"); !mmvalue.Equal(v, mmvalue.Int(4)) {
		t.Error("cross-collection txn lost update")
	}
	// Failing txn rolls both back.
	err = s.Manager().RunWith(0, func(tx *txn.Tx) error {
		orders.Insert(tx, orderDoc("o2", 1, 10, "p1"))
		products.Update(tx, "p1", func(d mmvalue.Value) (mmvalue.Value, error) {
			d.MustObject().Set("stock", mmvalue.Int(0))
			return d, nil
		})
		return fmt.Errorf("business rule failed")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if _, ok := orders.Get(nil, "o2"); ok {
		t.Error("aborted insert leaked")
	}
	p, _ = products.Get(nil, "p1")
	if v, _ := p.MustObject().Get("stock"); !mmvalue.Equal(v, mmvalue.Int(4)) {
		t.Error("aborted update leaked")
	}
}

// TestLookupEqMatchesEqFilter pins LookupEq to what Stream with an Eq
// filter returns on the same index: the same documents in the same
// order, an Int key finding Float values it equals, and a document that
// moved out of a key's bucket dropped by the re-check.
func TestLookupEqMatchesEqFilter(t *testing.T) {
	c := newTestStore().Collection("orders")
	for i := 0; i < 30; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%02d", i), int64(i%5), float64(i)))
	}
	c.Insert(nil, mmvalue.ObjectOf("_id", "f1", "customer_id", 2.0))
	c.Insert(nil, mmvalue.ObjectOf("_id", "nokey"))
	c.CreateIndex("customer_id")
	c.SetPath(nil, "o03", "customer_id", mmvalue.Int(4))
	pp := mmvalue.ParsePath("customer_id")
	ids := func(stream func(fn func(mmvalue.Value) bool)) []string {
		var out []string
		stream(func(doc mmvalue.Value) bool {
			id, _ := doc.MustObject().GetOr(IDField, mmvalue.Null).AsString()
			out = append(out, id)
			return true
		})
		return out
	}
	for _, key := range []mmvalue.Value{mmvalue.Int(2), mmvalue.Float(2), mmvalue.Int(3), mmvalue.Int(4), mmvalue.Int(9), mmvalue.String("2")} {
		got := ids(func(fn func(mmvalue.Value) bool) { c.LookupEq(nil, "customer_id", pp, key, fn) })
		want := ids(func(fn func(mmvalue.Value) bool) { c.Stream(nil, Eq("customer_id", key), fn) })
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("key %v: LookupEq = %v, Stream(Eq) = %v", key, got, want)
		}
		if slices.Contains(got, "o03") && !mmvalue.Equal(key, mmvalue.Int(4)) {
			t.Errorf("key %v: the moved document o03 survived the re-check", key)
		}
	}
	if got := ids(func(fn func(mmvalue.Value) bool) { c.LookupEq(nil, "customer_id", pp, mmvalue.Int(2), fn) }); len(got) != 7 {
		t.Errorf("key 2 found %v, want the six Int documents and f1", got)
	}
}

// TestLookupEqAllocs bounds one index probe hit at the two allocations
// of its index key (Value.Key), nothing per match. The same probe
// through Stream(tx, Eq(path, key), fn) makes 5.
func TestLookupEqAllocs(t *testing.T) {
	c := newTestStore().Collection("orders")
	for i := 0; i < 20; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%02d", i), int64(i), float64(i)))
	}
	c.CreateIndex("customer_id")
	pp := mmvalue.ParsePath("customer_id")
	key := mmvalue.Int(7)
	n := 0
	count := func(mmvalue.Value) bool { n++; return true }
	allocs := testing.AllocsPerRun(100, func() { c.LookupEq(nil, "customer_id", pp, key, count) })
	if n == 0 {
		t.Fatal("the probe found no document")
	}
	if allocs > 2 {
		t.Errorf("LookupEq made %.0f allocations per hit, want at most 2", allocs)
	}
}

func TestCompact(t *testing.T) {
	s := newTestStore()
	c := s.Collection("orders")
	c.CreateIndex("customer_id")
	c.Insert(nil, orderDoc("o1", 1, 10))
	for i := 0; i < 5; i++ {
		c.SetPath(nil, "o1", "total", mmvalue.Float(float64(i)))
	}
	c.Insert(nil, orderDoc("o2", 2, 20))
	c.Delete(nil, "o2")
	// Published()+1, not Oracle().Current()+1: the oracle runs ahead of
	// the watermark while commits are stamping, and a horizon past the
	// watermark can drop versions still visible to published snapshots.
	horizon := s.Manager().Published() + 1
	if dropped := c.Compact(horizon); dropped < 5 {
		t.Errorf("dropped = %d", dropped)
	}
	if _, ok := c.Get(nil, "o1"); !ok {
		t.Error("live doc lost in compact")
	}
	if docs := c.Find(nil, Eq("customer_id", 2)); len(docs) != 0 {
		t.Error("dead doc reachable after compact")
	}
}

func TestConcurrentInsertFind(t *testing.T) {
	s := newTestStore()
	c := s.Collection("orders")
	c.CreateIndex("customer_id")
	var wg sync.WaitGroup
	const writers, per = 4, 60
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-o%02d", w, i)
				if err := c.Insert(nil, orderDoc(id, int64(i%7), float64(i))); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Find(nil, Eq("customer_id", 3))
		}
	}()
	wg.Wait()
	if c.Count() != writers*per {
		t.Fatalf("Count = %d", c.Count())
	}
}

func BenchmarkInsert(b *testing.B) {
	c := NewStore("b", txn.NewManager()).Collection("orders")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%09d", i), int64(i%100), float64(i)))
	}
}

func BenchmarkFindIndexed(b *testing.B) {
	c := NewStore("b", txn.NewManager()).Collection("orders")
	for i := 0; i < 5000; i++ {
		c.Insert(nil, orderDoc(fmt.Sprintf("o%06d", i), int64(i%50), float64(i)))
	}
	c.CreateIndex("customer_id")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Find(nil, Eq("customer_id", int64(i%50)))
	}
}
