package workload

import (
	"fmt"
	"strconv"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/xmlstore"
)

// The references below are Q4, Q5, Q7 and Q11 as they were before they
// ran over column projections: Q5 and Q7 Go bodies over the session,
// Q4 and Q11 pipelines seeded by customers that sum each customer's
// joined orders row at a time.

// refQ4 counts the city's customers (index-served seed) whose joined
// orders' totals sum past the threshold.
func refQ4(_ datagen.Target, s session, p Params) (int, error) {
	count := 0
	err := s.pipeline().
		FromRelational("customer", relational.Col("city").Eq(p.City)).
		JoinDocuments("orders", "id", "customer_id", "_orders").
		Each(func(r mmvalue.Value) bool {
			if joinedOrderTotal(r.MustObject()) > p.Threshold {
				count++
			}
			return true
		})
	return count, err
}

// refQ5 counts the currencies (a missing attribute reads "") of the
// invoices whose total child parses as a number.
func refQ5(st datagen.Target, s session, _ Params) (int, error) {
	s.Hop()
	sums := map[string]float64{}
	st.XML.Scan(s.XMLTx(), func(_ string, doc *xmlstore.Node) bool {
		cur, _ := doc.Attr("currency")
		if totalEl, ok := doc.FirstChild("total"); ok {
			if f, err := strconv.ParseFloat(totalEl.InnerText(), 64); err == nil {
				sums[cur] += f
			}
		}
		return true
	})
	return len(sums), nil
}

// refQ7 finds the orders listing the product, then fetches each one's
// invoice and counts those with a total child.
func refQ7(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	matched := st.Docs.Collection("orders").Find(s.DocTx(), document.Func(
		"items contains "+p.ProductID,
		func(doc mmvalue.Value) bool {
			items, _ := mmvalue.ParsePath("items").LookupOr(doc, mmvalue.Null).AsArray()
			for _, it := range items {
				if pid, _ := it.MustObject().Get("product_id"); mmvalue.Equal(pid, mmvalue.String(p.ProductID)) {
					return true
				}
			}
			return false
		}))
	count := 0
	for _, o := range matched {
		id, _ := o.MustObject().Get("_id")
		s.Hop()
		if inv, ok := st.XML.Get(s.XMLTx(), id.MustString()); ok {
			if _, ok := inv.FirstChild("total"); ok {
				count++
			}
		}
	}
	return count, nil
}

// refQ11 seeds the two-hop neighborhood's customers by id and joins each
// one's orders, keeping the cities of those whose totals sum past the
// threshold.
func refQ11(st datagen.Target, s session, p Params) (int, error) {
	ids := q11Friends(st, s, p)
	if len(ids) == 0 {
		return 0, nil
	}
	cities := make(map[string]bool)
	err := s.pipeline().
		FromRelational("customer", relational.Col("id").In(ids...)).
		JoinDocuments("orders", "id", "customer_id", "_orders").
		Each(func(r mmvalue.Value) bool {
			o := r.MustObject()
			if joinedOrderTotal(o) > p.Threshold {
				city, _ := o.GetOr("city", mmvalue.Null).AsString()
				if city != "" {
					cities[city] = true
				}
			}
			return true
		})
	return len(cities), err
}

// joinedOrderTotal sums the totals of the orders JoinDocuments attached
// under "_orders".
func joinedOrderTotal(row *mmvalue.Object) float64 {
	orders, _ := row.GetOr("_orders", mmvalue.Null).AsArray()
	sum := 0.0
	for _, o := range orders {
		t, _ := o.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
		sum += t
	}
	return sum
}

var projectedRefs = []struct {
	q   QueryID
	ref func(datagen.Target, session, Params) (int, error)
}{{Q4, refQ4}, {Q5, refQ5}, {Q7, refQ7}, {Q11, refQ11}}

// TestProjectedQueriesMatchReferences compares Q4, Q5, Q7 and Q11 with
// their references on both engines: on the loaded data, after rounds of
// T1/T2 writes, and with hand-made rows — invoices without a currency,
// without a total and with an unparsable total, an order listing the
// product twice, an order with no invoice, customers without orders or
// friends — under thresholds of −1 and 10¹⁵, a city nobody lives in and
// a customer with no friends.
func TestProjectedQueriesMatchReferences(t *testing.T) {
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 23, 0)
	engines := []struct {
		name string
		e    *nativeEngine
	}{{"udbms", &fx.uni.nativeEngine}, {"federation", &fx.fed.nativeEngine}}
	answers := map[QueryID]int{} // the reference's answers summed over every check
	check := func(label string, p Params) map[QueryID]int {
		t.Helper()
		got := map[QueryID]int{}
		for _, e := range engines {
			for _, r := range projectedRefs {
				def, _ := r.q.def()
				var n, want int
				if err := e.e.sut.read(func(s session) (err error) {
					if n, err = def.body(e.e.st, s, p); err != nil {
						return err
					}
					want, err = r.ref(e.e.st, s, p)
					return err
				}); err != nil {
					t.Fatalf("%s %s %s: %v", label, e.name, r.q, err)
				}
				if n != want {
					t.Errorf("%s %s %s = %d, reference %d (params %+v)", label, e.name, r.q, n, want, p)
				}
				got[r.q], answers[r.q] = want, answers[r.q]+want
			}
		}
		return got
	}
	for i := 0; i < 6; i++ {
		check(fmt.Sprintf("loaded %d", i), gen.Next())
	}
	writes := NewParamGen(fx.info, 29, 0.5)
	for round := 0; round < 3; round++ {
		for w := 0; w < 8; w++ {
			p := writes.Next()
			p.FreshID = writes.NewOrderID(0, round, w)
			for _, e := range engines {
				if err := e.e.OrderUpdate(p); err != nil {
					t.Fatalf("round %d %s T1: %v", round, e.name, err)
				}
				if err := e.e.NewOrder(p); err != nil {
					t.Fatalf("round %d %s T2: %v", round, e.name, err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			check(fmt.Sprintf("writes round %d draw %d", round, i), gen.Next())
		}
	}
	for q, n := range answers {
		if n == 0 {
			t.Errorf("%s answered 0 on every draw: the comparison proves nothing", q)
		}
	}

	product := datagen.ProductID(1)
	lonely, friendly := len(fx.ds.Customers)+1, len(fx.ds.Customers)+2
	for _, e := range engines {
		handMadeRows(t, e.e.st, product, lonely, friendly)
	}
	p := gen.Next()
	p.ProductID, p.CustomerID = product, 1
	// The lonely customer lives in Turku and has no friends; the friendly
	// one lives in Rovaniemi, where no one else does, knows customer 1,
	// and has no orders either.
	q11 := map[float64]int{} // customer 1's answers by threshold
	for _, thr := range []float64{-1, 0, p.Threshold, 1e15} {
		p.Threshold = thr
		for _, c := range []struct {
			city string
			cid  int
		}{{"Turku", 1}, {"Rovaniemi", 1}, {"Atlantis", lonely}} {
			p.City, p.CustomerID = c.city, c.cid
			got := check(fmt.Sprintf("hand-made threshold %g city %s customer %d", thr, c.city, c.cid), p)
			if c.city == "Rovaniemi" && thr < 0 && got[Q4] != 1 {
				t.Errorf("threshold %g: Q4 counts %d Rovaniemi customers, want the one without orders", thr, got[Q4])
			}
			if c.cid == 1 {
				q11[thr] = got[Q11]
			}
		}
	}
	if q11[-1] <= q11[0] {
		t.Errorf("Q11 counts %d cities at threshold -1 and %d at 0: Rovaniemi's friend without orders is missing", q11[-1], q11[0])
	}
	// An unparsable invoice total mixes strings into the total column: Q5
	// and Q7 must still agree, over rows.
	for _, e := range engines {
		if err := e.e.st.XML.Put(nil, "x-bad", invoice("ABC", "n/a")); err != nil {
			t.Fatal(err)
		}
	}
	p.Threshold, p.City, p.CustomerID = 0, "Turku", 1
	check("unparsable total", p)
}

// invoice is an XML invoice with the currency attribute and total child
// given, each left out when "".
func invoice(currency, total string) *xmlstore.Node {
	inv := xmlstore.NewElement("invoice")
	if currency != "" {
		inv.SetAttr("currency", currency)
	}
	if total != "" {
		inv.Append(xmlstore.NewElement("total").Append(xmlstore.NewText(total)))
	}
	return inv
}

// handMadeRows adds the edge cases TestProjectedQueriesMatchReferences
// names: invoices without currency or total, orders of customer 1
// listing product twice and lacking an invoice or its total, and
// customers lonely and friendly without orders.
func handMadeRows(t *testing.T, st datagen.Target, product string, lonely, friendly int) {
	t.Helper()
	orders := st.Docs.Collection("orders")
	cust, err := tableOf(st, "customer")
	if err != nil {
		t.Fatal(err)
	}
	line := func(qty int) map[string]any { return map[string]any{"product_id": product, "qty": qty, "price": 1.5} }
	order := func(id string, items ...any) mmvalue.Value {
		return mmvalue.ObjectOf("_id", id, "customer_id", 1, "status", "open", "date", "2016-06-01", "total", 3.0, "items", items)
	}
	for _, err := range []error{
		st.XML.Put(nil, "x-nocur", invoice("", "5.00")),
		st.XML.Put(nil, "x-nototal", invoice("XYZ", "")),
		st.XML.Put(nil, "x-twice", invoice("EUR", "3.00")),
		orders.Insert(nil, order("x-twice", line(1), line(2))),
		orders.Insert(nil, order("x-noinv", line(1))),
		orders.Insert(nil, order("x-nototal", line(1))),
		cust.Insert(nil, mmvalue.ObjectOf("id", lonely, "name", "Lonely", "age", 30, "city", "Turku", "country", "FI", "vip", false)),
		cust.Insert(nil, mmvalue.ObjectOf("id", friendly, "name", "Friendly", "age", 40, "city", "Rovaniemi", "country", "FI", "vip", false)),
		st.Graph.AddVertex(nil, graph.VID(datagen.CustomerVID(friendly)), "customer", mmvalue.Null),
		st.Graph.AddEdge(nil, "x-knows", "knows", graph.VID(datagen.CustomerVID(friendly)), graph.VID(datagen.CustomerVID(1)), mmvalue.Null),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}
