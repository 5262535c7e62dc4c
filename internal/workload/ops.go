package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// session supplies per-store transaction handles and charges the
// engine-specific cost of one store request. For the unified engine
// every handle is the same snapshot transaction and hop() is free; for
// the federation the handles are independent (or nil for auto-commit
// reads) and hop() sleeps for the simulated network round trip.
type session interface {
	relTx() *txn.Tx
	docTx() *txn.Tx
	graphTx() *txn.Tx
	kvTx() *txn.Tx
	xmlTx() *txn.Tx
	hop()
}

func feedbackPrefix(cid int) string { return fmt.Sprintf("feedback/%06d/", cid) }

func q1CustomerProfile(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.hop()
	if _, ok := cust.Get(s.relTx(), p.CustomerID); !ok {
		return 0, nil
	}
	s.hop()
	orders := st.Docs.Collection("orders").Find(s.docTx(), document.Eq("customer_id", p.CustomerID), nil)
	s.hop()
	feedback := 0
	st.KV.ScanPrefix(s.kvTx(), feedbackPrefix(p.CustomerID), func(string, mmvalue.Value) bool {
		feedback++
		return true
	})
	return 1 + len(orders) + feedback, nil
}

func q2FriendsPurchases(st datagen.Target, s session, p Params) (int, error) {
	s.hop()
	friends := st.Graph.KHop(s.graphTx(), graph.VID(datagen.CustomerVID(p.CustomerID)), 1, graph.Both, "knows")
	products := map[string]bool{}
	orders := st.Docs.Collection("orders")
	for _, f := range friends {
		fid, ok := customerIDOf(string(f))
		if !ok {
			continue
		}
		s.hop()
		for _, o := range orders.Find(s.docTx(), document.Eq("customer_id", fid), nil) {
			items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
			for _, it := range items {
				pid, _ := it.MustObject().Get("product_id")
				products[pid.MustString()] = true
			}
		}
	}
	return len(products), nil
}

func q3TopRatedProducts(st datagen.Target, s session, p Params) (int, error) {
	type acc struct {
		sum, n float64
	}
	ratings := map[string]*acc{} // product -> rating accumulator
	orders := st.Docs.Collection("orders")
	s.hop()
	var entries []struct {
		oid    string
		rating float64
	}
	st.KV.Scan(s.kvTx(), "feedback/", "feedback0", func(key string, v mmvalue.Value) bool {
		parts := strings.Split(key, "/")
		if len(parts) != 3 {
			return true
		}
		r, _ := v.MustObject().GetOr("rating", mmvalue.Int(0)).AsFloat()
		entries = append(entries, struct {
			oid    string
			rating float64
		}{parts[2], r})
		return true
	})
	for _, e := range entries {
		s.hop()
		o, ok := orders.Get(s.docTx(), e.oid)
		if !ok {
			continue
		}
		items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			a := ratings[pid.MustString()]
			if a == nil {
				a = &acc{}
				ratings[pid.MustString()] = a
			}
			a.sum += e.rating
			a.n++
		}
	}
	type ranked struct {
		pid string
		avg float64
	}
	var rs []ranked
	for pid, a := range ratings {
		rs = append(rs, ranked{pid, a.sum / a.n})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].avg != rs[j].avg {
			return rs[i].avg > rs[j].avg
		}
		return rs[i].pid < rs[j].pid
	})
	if len(rs) > p.TopN {
		rs = rs[:p.TopN]
	}
	return len(rs), nil
}

// q4CityBigSpenders executes as a client-side hash join, the best a
// federation can do: fetch the city's customers, then fetch all their
// orders in one request and aggregate locally. Per-customer index
// probes would each pay a store round trip, so the single bulk scan
// request wins whenever the hop latency is nonzero — k probes cost
// k·hop while the scan costs one hop plus an in-store pass that is
// orders of magnitude cheaper than a round trip per probe.
func q4CityBigSpenders(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.hop()
	rows := cust.Query(s.relTx()).Where(relational.Col("city").Eq(p.City)).Project("id").Rows()
	orders := st.Docs.Collection("orders")
	count := 0
	// Buckets are keyed by mmvalue.Key (so Float(7) matches Int(7))
	// and re-verified with mmvalue.Equal on probe, exactly like the
	// document.Eq probes this join replaces — Key collisions cannot
	// merge distinct customers.
	type custSum struct {
		id  mmvalue.Value
		sum float64
	}
	bucket := make(map[string][]*custSum, len(rows))
	all := make([]*custSum, 0, len(rows))
	for _, r := range rows {
		id, _ := r.MustObject().Get("id")
		cs := &custSum{id: id}
		bucket[id.Key()] = append(bucket[id.Key()], cs)
		all = append(all, cs)
	}
	cidPath := mmvalue.ParsePath("customer_id")
	matchCust := func(cid mmvalue.Value) *custSum {
		for _, cs := range bucket[cid.Key()] {
			if mmvalue.Equal(cs.id, cid) {
				return cs
			}
		}
		return nil
	}
	s.hop()
	for _, o := range orders.Find(s.docTx(), document.Func(
		"customer_id in city set",
		func(doc mmvalue.Value) bool {
			cid, ok := cidPath.Lookup(doc)
			return ok && !cid.IsNull() && matchCust(cid) != nil
		}), &document.FindOptions{Projection: []string{"customer_id", "total"}}) {
		obj := o.MustObject()
		cid, _ := obj.Get("customer_id")
		t, _ := obj.GetOr("total", mmvalue.Float(0)).AsFloat()
		if cs := matchCust(cid); cs != nil {
			cs.sum += t
		}
	}
	for _, cs := range all {
		if cs.sum > p.Threshold {
			count++
		}
	}
	return count, nil
}

func q5InvoiceTotalsByCurrency(st datagen.Target, s session, _ Params) (int, error) {
	s.hop()
	sums := map[string]float64{}
	st.XML.Scan(s.xmlTx(), func(_ string, doc *xmlstore.Node) bool {
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

func q6TwoHopBuyers(st datagen.Target, s session, p Params) (int, error) {
	s.hop()
	buyers := st.Graph.KHop(s.graphTx(), graph.VID("p"+p.ProductID[1:]), 1, graph.In, "purchased")
	reach := map[graph.VID]bool{}
	for _, b := range buyers {
		reach[b] = true
		s.hop()
		for _, v := range st.Graph.KHop(s.graphTx(), b, 2, graph.Both, "knows") {
			reach[v] = true
		}
	}
	return len(reach), nil
}

func q7OrdersWithProduct(st datagen.Target, s session, p Params) (int, error) {
	s.hop()
	matched := st.Docs.Collection("orders").Find(s.docTx(), document.Func(
		"items contains "+p.ProductID,
		func(doc mmvalue.Value) bool {
			items, _ := mmvalue.ParsePath("items").LookupOr(doc, mmvalue.Null).AsArray()
			for _, it := range items {
				if pid, _ := it.MustObject().Get("product_id"); mmvalue.Equal(pid, mmvalue.String(p.ProductID)) {
					return true
				}
			}
			return false
		}), nil)
	count := 0
	for _, o := range matched {
		id, _ := o.MustObject().Get("_id")
		s.hop()
		if inv, ok := st.XML.Get(s.xmlTx(), id.MustString()); ok {
			if _, ok := inv.FirstChild("total"); ok {
				count++
			}
		}
	}
	return count, nil
}

// orderTotals streams (customer id, total) of every order — one store
// request, projected to the two fields the revenue queries aggregate.
func orderTotals(st datagen.Target, s session, each func(cid int64, total float64)) {
	s.hop()
	for _, o := range st.Docs.Collection("orders").Find(s.docTx(), nil,
		&document.FindOptions{Projection: []string{"customer_id", "total"}}) {
		obj := o.MustObject()
		cid, _ := obj.Get("customer_id")
		total, _ := obj.GetOr("total", mmvalue.Float(0)).AsFloat()
		each(cid.MustInt(), total)
	}
}

// revenueByCity is the client-side join behind Q8 and Q12: fetch every
// customer's city, then fold the order totals into a per-city sum.
// Orders of unknown customers have no city and are left out.
func revenueByCity(st datagen.Target, s session) (map[string]float64, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return nil, err
	}
	s.hop()
	cityOf := map[int64]string{}
	for _, r := range cust.Query(s.relTx()).Project("id", "city").Rows() {
		o := r.MustObject()
		id, _ := o.Get("id")
		city, _ := o.Get("city")
		cityOf[id.MustInt()] = city.MustString()
	}
	revenue := map[string]float64{}
	orderTotals(st, s, func(cid int64, total float64) { revenue[cityOf[cid]] += total })
	delete(revenue, "")
	return revenue, nil
}

func q8RevenueByCity(st datagen.Target, s session, _ Params) (int, error) {
	revenue, err := revenueByCity(st, s)
	return len(revenue), err
}

func q9InfluencerFeedback(st datagen.Target, s session, p Params) (int, error) {
	s.hop()
	degree := map[graph.VID]int{}
	st.Graph.Edges(s.graphTx(), func(e graph.Edge) bool {
		if e.Label == "knows" {
			degree[e.From]++
			degree[e.To]++
		}
		return true
	})
	type dv struct {
		v graph.VID
		d int
	}
	var top []dv
	for v, d := range degree {
		top = append(top, dv{v, d})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].d != top[j].d {
			return top[i].d > top[j].d
		}
		return top[i].v < top[j].v
	})
	if len(top) > p.TopN {
		top = top[:p.TopN]
	}
	total := 0
	for _, t := range top {
		cid, ok := customerIDOf(string(t.v))
		if !ok {
			continue
		}
		s.hop()
		st.KV.ScanPrefix(s.kvTx(), feedbackPrefix(cid), func(string, mmvalue.Value) bool {
			total++
			return true
		})
	}
	return total, nil
}

func q10FullChain(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.hop()
	if _, ok := cust.Get(s.relTx(), p.CustomerID); !ok {
		return 0, nil
	}
	touched := 1
	s.hop()
	orders := st.Docs.Collection("orders").Find(s.docTx(), document.Eq("customer_id", p.CustomerID), nil)
	products := st.Docs.Collection("products")
	for _, o := range orders {
		touched++
		obj := o.MustObject()
		items, _ := obj.GetOr("items", mmvalue.Null).AsArray()
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			s.hop()
			if _, ok := products.Get(s.docTx(), pid.MustString()); ok {
				touched++
			}
		}
		id, _ := obj.Get("_id")
		s.hop()
		if _, ok := st.XML.Get(s.xmlTx(), id.MustString()); ok {
			touched++
		}
	}
	s.hop()
	st.KV.ScanPrefix(s.kvTx(), feedbackPrefix(p.CustomerID), func(string, mmvalue.Value) bool {
		touched++
		return true
	})
	return touched, nil
}

// q11FriendNetworkSpend walks the two-hop "knows" network of a
// customer, then checks each friend's relational row and order totals:
// the result counts the distinct cities of friends who spent more than
// the threshold. The federation pays a round trip per friend for the
// relational probe and another for the order scan; the unified engine
// seeds one relational scan with the whole id set.
func q11FriendNetworkSpend(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.hop()
	friends := st.Graph.KHop(s.graphTx(), graph.VID(datagen.CustomerVID(p.CustomerID)), 2, graph.Both, "knows")
	orders := st.Docs.Collection("orders")
	cities := map[string]bool{}
	for _, f := range friends {
		fid, ok := customerIDOf(string(f))
		if !ok {
			continue
		}
		s.hop()
		row, ok := cust.Get(s.relTx(), fid)
		if !ok {
			continue
		}
		sum := 0.0
		s.hop()
		for _, o := range orders.Find(s.docTx(), document.Eq("customer_id", fid),
			&document.FindOptions{Projection: []string{"total"}}) {
			t, _ := o.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
			sum += t
		}
		if sum > p.Threshold {
			city, _ := row.MustObject().GetOr("city", mmvalue.Null).AsString()
			if city != "" {
				cities[city] = true
			}
		}
	}
	return len(cities), nil
}

// q12CityRevenueHaving groups order revenue by customer city and
// counts the cities whose total exceeds a scaled threshold — a
// HAVING-style filter over the aggregate. The scale (×50) puts the cut
// inside the revenue distribution so the count is neither 0 nor all
// cities at benchmark scale factors.
func q12CityRevenueHaving(st datagen.Target, s session, p Params) (int, error) {
	revenue, err := revenueByCity(st, s)
	count := 0
	for _, rev := range revenue {
		if rev > p.Threshold*50 {
			count++
		}
	}
	return count, err
}

// q13TopSpenders finds the top-N customers by total order revenue and
// counts the distinct cities they live in — a top-N over an aggregate.
// Ties in revenue resolve to the lower customer id (both engines sort
// stably over an id-ordered base, so the result is deterministic).
func q13TopSpenders(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	revenue := map[int64]float64{}
	orderTotals(st, s, func(cid int64, total float64) { revenue[cid] += total })
	type spender struct {
		cid int64
		rev float64
	}
	top := make([]spender, 0, len(revenue))
	for cid, rev := range revenue {
		top = append(top, spender{cid, rev})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].cid < top[j].cid })
	sort.SliceStable(top, func(i, j int) bool { return top[i].rev > top[j].rev })
	if len(top) > p.TopN {
		top = top[:p.TopN]
	}
	cities := map[string]bool{}
	for _, sp := range top {
		s.hop()
		row, ok := cust.Get(s.relTx(), int(sp.cid))
		if !ok {
			continue
		}
		city, _ := row.MustObject().GetOr("city", mmvalue.Null).AsString()
		if city != "" {
			cities[city] = true
		}
	}
	return len(cities), nil
}

// --- write transaction bodies (shared by both engines) ---

// orderUpdateBody is T1, the paper's example: update the order's total
// and status (JSON), decrement product stock (JSON), write feedback
// (key-value) and rewrite the invoice total (XML) — atomically when the
// session's handles belong to one transaction.
func orderUpdateBody(st datagen.Target, s session, p Params) error {
	orders := st.Docs.Collection("orders")
	var lineProducts []string
	var newTotal float64
	var cid int
	s.hop()
	err := orders.Update(s.docTx(), p.OrderID, func(doc mmvalue.Value) (mmvalue.Value, error) {
		obj := doc.MustObject()
		total, _ := obj.GetOr("total", mmvalue.Float(0)).AsFloat()
		newTotal = float64(int((total+1)*100)) / 100
		obj.Set("total", mmvalue.Float(newTotal))
		obj.Set("status", mmvalue.String("updated"))
		cidV, _ := obj.Get("customer_id")
		cid = int(cidV.MustInt())
		items, _ := obj.GetOr("items", mmvalue.Null).AsArray()
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			lineProducts = append(lineProducts, pid.MustString())
		}
		return doc, nil
	})
	if err != nil {
		return err
	}
	// Decrement stock of every line's product, in document order. Two
	// concurrent T1s touching overlapping product sets can acquire
	// these locks in opposite orders — the genuine deadlock source the
	// contention experiment (F3) sweeps with Zipf skew.
	seen := map[string]bool{}
	for _, pid := range lineProducts {
		if seen[pid] {
			continue
		}
		seen[pid] = true
		if err := adjustStock(st, s, pid, -1); err != nil {
			return err
		}
	}
	s.hop()
	if err := st.KV.Put(s.kvTx(), datagen.FeedbackKey(cid, p.OrderID), mmvalue.ObjectOf("rating", p.Rating, "text", "updated")); err != nil {
		return err
	}
	s.hop()
	return st.XML.Update(s.xmlTx(), p.OrderID, func(n *xmlstore.Node) (*xmlstore.Node, error) {
		totalEl, ok := n.FirstChild("total")
		if !ok {
			totalEl = xmlstore.NewElement("total")
			n.Append(totalEl)
		}
		totalEl.Children = []*xmlstore.Node{xmlstore.NewText(fmt.Sprintf("%.2f", newTotal))}
		n.SetAttr("status", "updated")
		return n, nil
	})
}

// newOrderBody is T2: insert a small order with one line, its XML
// invoice, and a purchased graph edge.
func newOrderBody(st datagen.Target, s session, p Params) error {
	total := 19.99
	order := mmvalue.ObjectOf(
		"_id", p.FreshID,
		"customer_id", p.CustomerID,
		"status", "open",
		"date", "2016-06-01",
		"total", total,
		"items", []any{map[string]any{"product_id": p.ProductID, "qty": 1, "price": total}},
	)
	s.hop()
	if err := st.Docs.Collection("orders").Insert(s.docTx(), order); err != nil {
		return err
	}
	inv := xmlstore.NewElement("invoice",
		xmlstore.Attr{Name: "id", Value: p.FreshID},
		xmlstore.Attr{Name: "currency", Value: "EUR"},
	).Append(
		xmlstore.NewElement("customer", xmlstore.Attr{Name: "cid", Value: fmt.Sprint(p.CustomerID)}),
		xmlstore.NewElement("lines").Append(xmlstore.NewElement("line",
			xmlstore.Attr{Name: "sku", Value: p.ProductID},
			xmlstore.Attr{Name: "qty", Value: "1"},
			xmlstore.Attr{Name: "price", Value: fmt.Sprintf("%.2f", total)},
		)),
		xmlstore.NewElement("total").Append(xmlstore.NewText(fmt.Sprintf("%.2f", total))),
	)
	s.hop()
	if err := st.XML.Put(s.xmlTx(), p.FreshID, inv); err != nil {
		return err
	}
	s.hop()
	return st.Graph.AddEdge(s.graphTx(), graph.EID("buy-"+p.FreshID), "purchased",
		graph.VID(datagen.CustomerVID(p.CustomerID)), graph.VID("p"+p.ProductID[1:]),
		mmvalue.ObjectOf("order", p.FreshID, "qty", 1))
}

// writeFeedbackBody is T3: put key-value feedback and mark the order
// reviewed in the document store.
func writeFeedbackBody(st datagen.Target, s session, p Params) error {
	s.hop()
	var cid int
	err := st.Docs.Collection("orders").Update(s.docTx(), p.OrderID, func(doc mmvalue.Value) (mmvalue.Value, error) {
		obj := doc.MustObject()
		obj.Set("status", mmvalue.String("reviewed"))
		cidV, _ := obj.Get("customer_id")
		cid = int(cidV.MustInt())
		return doc, nil
	})
	if err != nil {
		return err
	}
	s.hop()
	return st.KV.Put(s.kvTx(), datagen.FeedbackKey(cid, p.OrderID),
		mmvalue.ObjectOf("rating", p.Rating, "text", "review"))
}

// stockTransferBody is T5: move one unit of stock from ProductID to
// ProductID2, locking the two product documents in parameter order —
// deliberately NOT canonical order, modelling naive application code.
// This is the deadlock generator of the contention experiment.
func stockTransferBody(st datagen.Target, s session, p Params) error {
	if err := adjustStock(st, s, p.ProductID, -1); err != nil {
		return err
	}
	if p.ProductID2 == p.ProductID {
		return nil
	}
	return adjustStock(st, s, p.ProductID2, +1)
}

// adjustStock adds delta to one product document's stock (one store
// request, exclusive lock on the document).
func adjustStock(st datagen.Target, s session, pid string, delta int64) error {
	s.hop()
	return st.Docs.Collection("products").Update(s.docTx(), pid, func(doc mmvalue.Value) (mmvalue.Value, error) {
		obj := doc.MustObject()
		stock, _ := obj.GetOr("stock", mmvalue.Int(0)).AsFloat()
		obj.Set("stock", mmvalue.Int(int64(stock)+delta))
		return doc, nil
	})
}

// snapshotReadBody is T4: read the order total from the document model
// and the XML invoice; report whether the two disagreed (torn read).
func snapshotReadBody(st datagen.Target, s session, p Params) (bool, error) {
	s.hop()
	doc, ok := st.Docs.Collection("orders").Get(s.docTx(), p.OrderID)
	if !ok {
		return false, nil
	}
	docTotal, _ := doc.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
	s.hop()
	inv, ok := st.XML.Get(s.xmlTx(), p.OrderID)
	if !ok {
		return false, nil
	}
	totalEl, ok := inv.FirstChild("total")
	if !ok {
		return true, nil
	}
	xmlTotal, err := strconv.ParseFloat(totalEl.InnerText(), 64)
	if err != nil {
		return true, nil
	}
	diff := docTotal - xmlTotal
	if diff < 0 {
		diff = -diff
	}
	return diff > 0.005, nil
}

// customerIDOf parses a customer vertex id back to its number.
func customerIDOf(vid string) (int, bool) {
	if !strings.HasPrefix(vid, "c") {
		return 0, false
	}
	n, err := strconv.Atoi(vid[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}
