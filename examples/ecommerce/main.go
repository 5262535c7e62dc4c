// E-commerce: the paper's motivating scenario. An order placement is
// one cross-model transaction touching four models (JSON order, XML
// invoice, key-value feedback, graph purchase edge); an order update
// is the paper's literal example — "an update of order information may
// affect JSON files (Orders, Product), key-value messages (Feedback)
// and XML data (Invoice)". The demo shows atomic commit, rollback on
// failure, and a cross-model analytics pass.
package main

import (
	"errors"
	"fmt"
	"log"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

func main() {
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7})
	if err := ds.Load(db.Stores()); err != nil {
		log.Fatal(err)
	}

	// --- Place a new order: one ACID transaction, four models. ---
	const orderID = "o-demo-1"
	customer := 3
	product := datagen.ProductID(2)
	err := db.RunTx(func(tx *txn.Tx) error {
		order := mmvalue.ObjectOf(
			"_id", orderID, "customer_id", customer, "status", "open",
			"date", "2016-06-11", "total", 49.90,
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
			graph.VID(datagen.CustomerVID(customer)), graph.VID("p"+product[1:]),
			mmvalue.ObjectOf("order", orderID))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("placed order", orderID, "atomically across 4 models")

	// --- A failing update rolls back every model. ---
	errBusiness := errors.New("card declined")
	err = db.RunTx(func(tx *txn.Tx) error {
		if err := db.Docs.Collection("orders").SetPath(tx, orderID, "status", mmvalue.String("paid")); err != nil {
			return err
		}
		if err := db.XML.Update(tx, orderID, func(n *xmlstore.Node) (*xmlstore.Node, error) {
			n.SetAttr("status", "paid")
			return n, nil
		}); err != nil {
			return err
		}
		return errBusiness // payment failed: abort everything
	})
	if !errors.Is(err, errBusiness) {
		log.Fatal("expected business failure, got", err)
	}
	doc, _ := db.Docs.Collection("orders").Get(nil, orderID)
	status, _ := doc.MustObject().Get("status")
	inv, _ := db.XML.Get(nil, orderID)
	_, invPaid := inv.Attr("status")
	fmt.Printf("payment failed -> rollback: order status=%s, invoice paid-attr present=%v\n",
		status, invPaid)

	// --- Cross-model analytics: who bought what my friends bought? ---
	friends := db.Graph.KHop(nil, []graph.VID{graph.VID(datagen.CustomerVID(customer))}, 1, graph.Both, "knows")
	recommended := map[string]int{}
	for _, f := range friends {
		for _, e := range db.Graph.Neighbors(nil, f, graph.Out, "purchased") {
			recommended[string(e.To)]++
		}
	}
	fmt.Printf("customer %d has %d friends who purchased %d distinct products\n",
		customer, len(friends), len(recommended))

	// Invoice audit: count the totals on EUR invoices.
	count := 0
	db.XML.Scan(nil, func(_ string, inv *xmlstore.Node) bool {
		if cur, _ := inv.Attr("currency"); cur == "EUR" {
			count += len(inv.ChildElements("total"))
		}
		return true
	})
	fmt.Printf("EUR invoices audited: %d\n", count)
}
