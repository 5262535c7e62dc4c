package datagen

import (
	"strings"
	"testing"

	"udbench/internal/mmvalue"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds should diverge")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(1)
	z := NewZipf(r, 100, 0.99)
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if counts[0] < counts[50]*3 {
		t.Errorf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	// theta 0 is roughly uniform.
	z0 := NewZipf(r, 10, 0)
	c0 := make([]int, 10)
	for i := 0; i < draws; i++ {
		c0[z0.Next()]++
	}
	for i, c := range c0 {
		if c < draws/20 {
			t.Errorf("uniform zipf rank %d undersampled: %d", i, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{ScaleFactor: 0.05, Seed: 99}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Customers) != len(b.Customers) || len(a.Orders) != len(b.Orders) {
		t.Fatal("sizes differ across runs")
	}
	for i := range a.Customers {
		if !mmvalue.Equal(a.Customers[i], b.Customers[i]) {
			t.Fatalf("customer %d differs", i)
		}
	}
	for i := range a.Orders {
		if !mmvalue.Equal(a.Orders[i], b.Orders[i]) {
			t.Fatalf("order %d differs", i)
		}
	}
	if len(a.KnowsEdges) != len(b.KnowsEdges) {
		t.Fatal("graph differs")
	}
	// Different seed differs.
	c := Generate(Config{ScaleFactor: 0.05, Seed: 100})
	diff := false
	for i := range a.Customers {
		if !mmvalue.Equal(a.Customers[i], c.Customers[i]) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should give different data")
	}
}

func TestGenerateCountsScale(t *testing.T) {
	small := Generate(Config{ScaleFactor: 0.02, Seed: 1})
	big := Generate(Config{ScaleFactor: 0.1, Seed: 1})
	if len(big.Customers) != 5*len(small.Customers) {
		t.Errorf("customer scaling wrong: %d vs %d", len(small.Customers), len(big.Customers))
	}
	if len(big.Orders) != 5*len(small.Orders) {
		t.Errorf("order scaling wrong: %d vs %d", len(small.Orders), len(big.Orders))
	}
	// Clamped minimum.
	tiny := Generate(Config{ScaleFactor: 0, Seed: 1})
	if len(tiny.Customers) < 1 {
		t.Error("minimum scale should yield at least 1 customer")
	}
	cu, pr, or := Config{ScaleFactor: 1}.Counts()
	if cu != BaseCustomers || pr != BaseProducts || or != BaseOrders {
		t.Errorf("SF1 counts = %d/%d/%d", cu, pr, or)
	}
}

func TestCrossModelReferentialIntegrity(t *testing.T) {
	ds := Generate(Config{ScaleFactor: 0.05, Seed: 7})
	nCust := len(ds.Customers)
	prodIDs := make(map[string]bool)
	for _, p := range ds.Products {
		id, _ := p.MustObject().Get("_id")
		prodIDs[id.MustString()] = true
	}
	orderIDs := make(map[string]bool)
	for _, o := range ds.Orders {
		obj := o.MustObject()
		id, _ := obj.Get("_id")
		orderIDs[id.MustString()] = true
		cid, _ := obj.Get("customer_id")
		if cid.MustInt() < 1 || cid.MustInt() > int64(nCust) {
			t.Fatalf("order references missing customer %d", cid.MustInt())
		}
		items, _ := obj.GetOr("items", mmvalue.Null).AsArray()
		if len(items) == 0 {
			t.Fatal("order without items")
		}
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			if !prodIDs[pid.MustString()] {
				t.Fatalf("order references missing product %s", pid)
			}
		}
	}
	// Every order has an invoice; invoice ids match orders.
	if len(ds.Invoices) != len(ds.Orders) {
		t.Errorf("invoices = %d, orders = %d", len(ds.Invoices), len(ds.Orders))
	}
	for oid, inv := range ds.Invoices {
		if !orderIDs[oid] {
			t.Errorf("invoice for missing order %s", oid)
		}
		if v, _ := inv.Attr("id"); v != oid {
			t.Errorf("invoice attr id %s != key %s", v, oid)
		}
	}
	// Feedback keys parse back to valid customer and order.
	for _, k := range ds.FeedbackKeys {
		parts := strings.Split(k, "/")
		if len(parts) != 3 || parts[0] != "feedback" {
			t.Fatalf("bad feedback key %s", k)
		}
		if !orderIDs[parts[2]] {
			t.Errorf("feedback for missing order %s", parts[2])
		}
	}
	// Knows edges link valid customers, no self loops, no duplicates.
	seen := map[string]bool{}
	for _, e := range ds.KnowsEdges {
		if e.From == e.To {
			t.Fatal("self loop in knows")
		}
		if seen[e.ID] {
			t.Fatal("duplicate knows edge id")
		}
		seen[e.ID] = true
	}
	// Purchases reference valid products.
	for _, e := range ds.PurchaseEdges {
		if !strings.HasPrefix(e.To, "p") {
			t.Fatalf("purchase edge to non-product %s", e.To)
		}
	}
	// Feedback rate near the configured value.
	rate := float64(len(ds.FeedbackKeys)) / float64(len(ds.Orders))
	if rate < FeedbackRate-0.15 || rate > FeedbackRate+0.15 {
		t.Errorf("feedback rate = %.2f", rate)
	}
}

func TestIDHelpers(t *testing.T) {
	if ProductID(3) != "p000003" || OrderID(12) != "o00000012" || CustomerVID(5) != "c000005" {
		t.Error("id format changed")
	}
	if FeedbackKey(7, "o00000001") != "feedback/000007/o00000001" {
		t.Errorf("FeedbackKey = %s", FeedbackKey(7, "o00000001"))
	}
}

func BenchmarkGenerateSF01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{ScaleFactor: 0.1, Seed: uint64(i)})
	}
}
