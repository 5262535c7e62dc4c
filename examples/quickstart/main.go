// Quickstart: open a unified multi-model database, load a small
// Figure-1 dataset, and run one query in each data model plus one
// cross-model pipeline — the five models of the UDBMS benchmark in
// thirty lines of application code.
package main

import (
	"fmt"
	"log"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/udbms"
	"udbench/internal/xmlstore"
)

func main() {
	// Open an empty unified database and load the benchmark dataset.
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 1})
	if err := ds.Load(db.Stores()); err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("loaded: %d customers, %d orders, %d products, %d feedback, %d invoices, %d vertices/%d edges\n\n",
		st.Tables["customer"], st.Collections["orders"], st.Collections["products"],
		st.KVPairs, st.XMLDocs, st.Vertices, st.Edges)

	// Relational: customers in Helsinki.
	cust, _ := db.Relational.Table("customer")
	hki := cust.Query(nil).Where(relational.Col("city").Eq("Helsinki")).Count()
	fmt.Printf("relational  | customers in Helsinki: %d\n", hki)

	// Document: orders above 100.
	big := db.Docs.Collection("orders").CountWhere(nil, document.Gt("total", 100))
	fmt.Printf("document    | orders with total > 100: %d\n", big)

	// Graph: friends-of-friends of customer 1.
	fof := db.Graph.KHop(nil, []graph.VID{graph.VID(datagen.CustomerVID(1))}, 2, graph.Both, "knows")
	fmt.Printf("graph       | customers within 2 knows-hops of c1: %d\n", len(fof))

	// Key-value: feedback entries of customer 1.
	n := 0
	db.KV.ScanPrefix(nil, "feedback/000001/", func(string, mmvalue.Value) bool { n++; return true })
	fmt.Printf("key-value   | feedback entries of customer 1: %d\n", n)

	// XML: EUR invoices.
	eur := 0
	db.XML.Scan(nil, func(_ string, inv *xmlstore.Node) bool {
		if cur, _ := inv.Attr("currency"); cur == "EUR" {
			if _, ok := inv.FirstChild("total"); ok {
				eur++
			}
		}
		return true
	})
	fmt.Printf("xml         | EUR invoices: %d\n", eur)

	// Cross-model pipeline: Helsinki customers joined with their
	// orders and feedback, under one snapshot.
	rows, err := db.Pipeline(nil).
		FromRelational("customer", relational.Col("city").Eq("Helsinki")).
		JoinDocuments("orders", "id", "customer_id", "orders").
		JoinKVPrefix(func(r mmvalue.Value) string {
			id, _ := r.MustObject().Get("id")
			return fmt.Sprintf("feedback/%06d/", id.MustInt())
		}, "feedback").
		Rows()
	if err != nil {
		log.Fatal(err)
	}
	totalOrders := 0
	for _, r := range rows {
		o, _ := r.MustObject().GetOr("orders", mmvalue.Null).AsArray()
		totalOrders += len(o)
	}
	fmt.Printf("cross-model | Helsinki customers: %d, their orders: %d (one snapshot)\n",
		len(rows), totalOrders)
}
