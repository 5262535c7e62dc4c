package workload

import (
	"fmt"
	"strconv"
	"strings"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

// session is what an op body runs in: the per-store transaction handles
// and the charge for one store request (udbms.Access — the accessor the
// pipeline executor issues its own requests through), plus the executor
// itself. The bodies here, the write transactions and Q2, Q6 and Q10,
// use the handles directly (Q6 as two graph requests: the buyers, then
// one multi-source walk from them); the other queries are pipelines
// (pipeline_queries.go). For the unified engine every handle is the same
// snapshot transaction, Hop() is free and pipelines keep the DB's join
// cache and column projections; for the federation the handles are
// independent (or nil for auto-commit reads), Hop() sleeps for the
// simulated network round trip and a pipeline is just the session's
// requests in executor order.
type session interface {
	udbms.Access
	pipeline() *udbms.Pipeline
}

// tableOf fetches one of the dataset's relational tables, or says that
// the dataset is missing.
func tableOf(st datagen.Target, name string) (*relational.Table, error) {
	t, ok := st.Relational.Table(name)
	if !ok {
		return nil, fmt.Errorf("workload: %s table missing (dataset not loaded?)", name)
	}
	return t, nil
}

// feedbackPrefix is fmt.Sprintf("feedback/%06d/", cid) for cid >= 0.
func feedbackPrefix(cid int) string {
	d := strconv.Itoa(cid)
	return "feedback/" + "000000"[min(len(d), 6):] + d + "/"
}

func q2FriendsPurchases(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	friends := st.Graph.KHop(s.GraphTx(), []graph.VID{graph.VID(datagen.CustomerVID(p.CustomerID))}, 1, graph.Both, "knows")
	products := map[string]bool{}
	orders := st.Docs.Collection("orders")
	for _, f := range friends {
		fid, ok := customerIDOf(string(f))
		if !ok {
			continue
		}
		s.Hop()
		orders.Stream(s.DocTx(), document.Eq("customer_id", fid), func(o mmvalue.Value) bool {
			items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
			for _, it := range items {
				pid, _ := it.MustObject().Get("product_id")
				products[pid.MustString()] = true
			}
			return true
		})
	}
	return len(products), nil
}

// q6TwoHopBuyers counts the buyers B of p's product and every vertex
// within two knows-hops of them: B plus one multi-source walk from B,
// two graph requests. The walk excludes its starts, so the parts are
// disjoint.
func q6TwoHopBuyers(st datagen.Target, s session, p Params) (int, error) {
	product := datagen.ProductVID(p.ProductID)
	if product == "" {
		return 0, nil
	}
	s.Hop()
	buyers := st.Graph.KHop(s.GraphTx(), []graph.VID{graph.VID(product)}, 1, graph.In, "purchased")
	s.Hop()
	return len(buyers) + len(st.Graph.KHop(s.GraphTx(), buyers, 2, graph.Both, "knows")), nil
}

func q10FullChain(st datagen.Target, s session, p Params) (int, error) {
	cust, err := tableOf(st, "customer")
	if err != nil {
		return 0, err
	}
	s.Hop()
	if _, ok := cust.Get(s.RelTx(), p.CustomerID); !ok {
		return 0, nil
	}
	touched := 1
	s.Hop()
	var orders []mmvalue.Value // shared with the store: read only
	st.Docs.Collection("orders").Stream(s.DocTx(), document.Eq("customer_id", p.CustomerID), func(o mmvalue.Value) bool {
		orders = append(orders, o)
		return true
	})
	products := st.Docs.Collection("products")
	for _, o := range orders {
		touched++
		obj := o.MustObject()
		items, _ := obj.GetOr("items", mmvalue.Null).AsArray()
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			s.Hop()
			if _, ok := products.Get(s.DocTx(), pid.MustString()); ok {
				touched++
			}
		}
		id, _ := obj.Get("_id")
		s.Hop()
		if _, ok := st.XML.Get(s.XMLTx(), id.MustString()); ok {
			touched++
		}
	}
	s.Hop()
	st.KV.ScanPrefix(s.KVTx(), feedbackPrefix(p.CustomerID), func(string, mmvalue.Value) bool {
		touched++
		return true
	})
	return touched, nil
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
	s.Hop()
	err := orders.Update(s.DocTx(), p.OrderID, func(doc mmvalue.Value) (mmvalue.Value, error) {
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
	s.Hop()
	if err := st.KV.Put(s.KVTx(), datagen.FeedbackKey(cid, p.OrderID), mmvalue.ObjectOf("rating", p.Rating, "text", "updated")); err != nil {
		return err
	}
	s.Hop()
	return st.XML.Update(s.XMLTx(), p.OrderID, func(n *xmlstore.Node) (*xmlstore.Node, error) {
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
	product := datagen.ProductVID(p.ProductID)
	if product == "" {
		return fmt.Errorf("workload: new order: %q is not a product id", p.ProductID)
	}
	total := 19.99
	order := mmvalue.ObjectOf(
		"_id", p.FreshID,
		"customer_id", p.CustomerID,
		"status", "open",
		"date", "2016-06-01",
		"total", total,
		"items", []any{map[string]any{"product_id": p.ProductID, "qty": 1, "price": total}},
	)
	s.Hop()
	if err := st.Docs.Collection("orders").Insert(s.DocTx(), order); err != nil {
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
	s.Hop()
	if err := st.XML.Put(s.XMLTx(), p.FreshID, inv); err != nil {
		return err
	}
	s.Hop()
	return st.Graph.AddEdge(s.GraphTx(), graph.EID("buy-"+p.FreshID), "purchased",
		graph.VID(datagen.CustomerVID(p.CustomerID)), graph.VID(product),
		mmvalue.ObjectOf("order", p.FreshID, "qty", 1))
}

// writeFeedbackBody is T3: put key-value feedback and mark the order
// reviewed in the document store.
func writeFeedbackBody(st datagen.Target, s session, p Params) error {
	s.Hop()
	var cid int
	err := st.Docs.Collection("orders").Update(s.DocTx(), p.OrderID, func(doc mmvalue.Value) (mmvalue.Value, error) {
		obj := doc.MustObject()
		obj.Set("status", mmvalue.String("reviewed"))
		cidV, _ := obj.Get("customer_id")
		cid = int(cidV.MustInt())
		return doc, nil
	})
	if err != nil {
		return err
	}
	s.Hop()
	return st.KV.Put(s.KVTx(), datagen.FeedbackKey(cid, p.OrderID),
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
	s.Hop()
	return st.Docs.Collection("products").Update(s.DocTx(), pid, func(doc mmvalue.Value) (mmvalue.Value, error) {
		obj := doc.MustObject()
		stock, _ := obj.GetOr("stock", mmvalue.Int(0)).AsFloat()
		obj.Set("stock", mmvalue.Int(int64(stock)+delta))
		return doc, nil
	})
}

// snapshotReadBody is T4: read the order total from the document model
// and the XML invoice; report whether the two disagreed (torn read).
func snapshotReadBody(st datagen.Target, s session, p Params) (bool, error) {
	s.Hop()
	doc, ok := st.Docs.Collection("orders").Get(s.DocTx(), p.OrderID)
	if !ok {
		return false, nil
	}
	docTotal, _ := doc.MustObject().GetOr("total", mmvalue.Float(0)).AsFloat()
	s.Hop()
	inv, ok := st.XML.Get(s.XMLTx(), p.OrderID)
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
