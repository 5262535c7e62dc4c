package udbms_test

import (
	"errors"
	"fmt"
	"log"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

// loaded opens a unified database holding a small Figure-1 dataset.
func loaded(seed uint64) *udbms.DB {
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: seed})
	if err := ds.Load(db.Stores()); err != nil {
		log.Fatal(err)
	}
	return db
}

// count runs a pipeline to its row count.
func count(p *udbms.Pipeline) int {
	n, err := p.Count()
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// One query in each of the five data models of the Figure-1 dataset,
// then one cross-model pipeline under a single snapshot.
func Example() {
	db := loaded(1)

	hki := relational.Col("city").Eq("Helsinki")
	fmt.Println("relational  | customers in Helsinki:",
		count(db.Pipeline(nil).FromRelational("customer", hki)))
	fmt.Println("document    | orders of customer 1:",
		count(db.Pipeline(nil).FromDocuments("orders", document.Eq("customer_id", 1))))
	fof := db.Graph.KHop(nil, []graph.VID{graph.VID(datagen.CustomerVID(1))}, 2, graph.Both, "knows")
	fmt.Println("graph       | customers within 2 knows-hops of c1:", len(fof))
	fb := 0
	db.KV.ScanPrefix(nil, "feedback/000001/", func(string, mmvalue.Value) bool { fb++; return true })
	fmt.Println("key-value   | feedback entries of customer 1:", fb)
	fmt.Println("xml         | EUR invoices:",
		count(db.Pipeline(nil).FromXML().Where("@currency", "EUR")))

	// Helsinki customers joined with their orders and their feedback.
	rows, err := db.Pipeline(nil).
		FromRelational("customer", hki).
		JoinDocuments("orders", "id", "customer_id", "orders").
		JoinKVPrefix(func(r mmvalue.Value) string {
			id, _ := r.MustObject().Get("id")
			return fmt.Sprintf("feedback/%06d/", id.MustInt())
		}, "feedback").
		Rows()
	if err != nil {
		log.Fatal(err)
	}
	orders := 0
	for _, r := range rows {
		o, _ := r.MustObject().GetOr("orders", mmvalue.Null).AsArray()
		orders += len(o)
	}
	fmt.Printf("cross-model | Helsinki customers: %d, their orders: %d\n", len(rows), orders)
	// Output:
	// relational  | customers in Helsinki: 10
	// document    | orders of customer 1: 16
	// graph       | customers within 2 knows-hops of c1: 25
	// key-value   | feedback entries of customer 1: 9
	// xml         | EUR invoices: 38
	// cross-model | Helsinki customers: 10, their orders: 27
}

// The paper's motivating scenario: placing an order is one transaction
// over four models (the JSON order, its XML invoice, key-value feedback
// and a graph purchase edge); a failed payment rolls every model back.
func Example_ecommerce() {
	db := loaded(7)
	const orderID = "o-demo-1"
	customer, product := 3, datagen.ProductID(2)

	err := db.RunTx(func(tx *txn.Tx) error {
		order := mmvalue.ObjectOf(
			"_id", orderID, "customer_id", customer, "status", "open", "total", 49.90,
			"items", []any{map[string]any{"product_id": product, "qty": 2, "price": 24.95}},
		)
		if err := db.Docs.Collection("orders").Insert(tx, order); err != nil {
			return err
		}
		inv := xmlstore.NewElement("invoice",
			xmlstore.Attr{Name: "id", Value: orderID},
			xmlstore.Attr{Name: "currency", Value: "EUR"},
		).Append(xmlstore.NewElement("total").Append(xmlstore.NewText("49.90")))
		if err := db.XML.Put(tx, orderID, inv); err != nil {
			return err
		}
		if err := db.KV.Put(tx, datagen.FeedbackKey(customer, orderID),
			mmvalue.ObjectOf("rating", 5, "text", "instant classic")); err != nil {
			return err
		}
		return db.Graph.AddEdge(tx, graph.EID("buy-"+orderID), "purchased",
			graph.VID(datagen.CustomerVID(customer)), graph.VID(datagen.ProductVID(product)),
			mmvalue.ObjectOf("order", orderID))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("placed", orderID, "across four models")

	errDeclined := errors.New("card declined")
	err = db.RunTx(func(tx *txn.Tx) error {
		err := db.Docs.Collection("orders").Update(tx, orderID, func(doc mmvalue.Value) (mmvalue.Value, error) {
			doc.MustObject().Set("status", mmvalue.String("paid"))
			return doc, nil
		})
		if err != nil {
			return err
		}
		if err := db.XML.Update(tx, orderID, func(n *xmlstore.Node) (*xmlstore.Node, error) {
			n.SetAttr("status", "paid")
			return n, nil
		}); err != nil {
			return err
		}
		return errDeclined
	})
	doc, _ := db.Docs.Collection("orders").Get(nil, orderID)
	status, _ := doc.MustObject().Get("status")
	inv, _ := db.XML.Get(nil, orderID)
	_, paid := inv.Attr("status")
	fmt.Printf("%v: order status %s, invoice marked paid %v\n", err, status, paid)

	// What did customer 3's friends buy?
	friends := db.Graph.KHop(nil, []graph.VID{graph.VID(datagen.CustomerVID(customer))}, 1, graph.Both, "knows")
	bought := db.Graph.KHop(nil, friends, 1, graph.Out, "purchased")
	fmt.Printf("customer %d has %d friends, who bought %d distinct products\n", customer, len(friends), len(bought))
	// Output:
	// placed o-demo-1 across four models
	// card declined: order status "open", invoice marked paid false
	// customer 3 has 9 friends, who bought 15 distinct products
}
