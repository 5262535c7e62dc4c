// Package datagen generates the UDBMS benchmark dataset of Figure 1:
// relational Customers, JSON Orders and Products, key-value Feedback,
// XML Invoices, and a property graph of social "knows" edges plus
// customer→product "purchased" edges — all correlated by shared
// identifiers so that cross-model queries and transactions have
// meaningful join paths.
//
// Generation is deterministic: the same (Seed, ScaleFactor) always
// produces the same dataset, which is what lets the conversion
// experiments validate against gold-standard outputs.
package datagen

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"udbench/internal/document"
	"udbench/internal/graph"
	"udbench/internal/kv"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// Config controls dataset size and randomness.
type Config struct {
	// ScaleFactor scales every entity count linearly; SF 1 is the
	// reference size below. Values < 0.01 are clamped.
	ScaleFactor float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// Reference entity counts at scale factor 1.
const (
	BaseCustomers = 1000
	BaseProducts  = 300
	BaseOrders    = 3000
	// KnowsPerCustomer is the average out-degree of the social graph.
	KnowsPerCustomer = 4
	// FeedbackRate is the fraction of orders that have feedback.
	FeedbackRate = 0.6
	// MaxItemsPerOrder bounds order line counts (1..Max).
	MaxItemsPerOrder = 4
)

// Dataset is the fully materialized benchmark dataset: the in-memory
// gold standard that loaders copy into engines and that the conversion
// experiments compare against.
type Dataset struct {
	Config Config

	// Customers are relational rows (schema CustomerSchema()).
	Customers []mmvalue.Value
	// Products and Orders are JSON documents.
	Products []mmvalue.Value
	Orders   []mmvalue.Value
	// Feedback maps kv key -> payload object.
	Feedback map[string]mmvalue.Value
	// FeedbackKeys lists feedback keys in insertion order.
	FeedbackKeys []string
	// Invoices maps order id -> XML tree.
	Invoices map[string]*xmlstore.Node
	// KnowsEdges and PurchaseEdges are graph edges between customer
	// vertices (c<id>) and product vertices (p<id>).
	KnowsEdges    []EdgeSpec
	PurchaseEdges []EdgeSpec
}

// EdgeSpec describes one generated graph edge.
type EdgeSpec struct {
	ID       string
	From, To string
	Label    string
	Props    mmvalue.Value
}

// CustomerSchema returns the relational schema of the Customer table.
func CustomerSchema() relational.Schema {
	return relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
		relational.Column{Name: "age", Type: relational.TypeInt},
		relational.Column{Name: "city", Type: relational.TypeString},
		relational.Column{Name: "country", Type: relational.TypeString},
		relational.Column{Name: "vip", Type: relational.TypeBool},
	)
}

// Cities is every city a generated customer can live in; the workload's
// parameter generator draws its city parameter from the same list.
var Cities = []string{"Helsinki", "Turku", "Tampere", "Oulu", "Espoo", "Vantaa", "Lahti", "Kuopio"}

var (
	countries = []string{"FI", "SE", "NO", "DK", "EE"}
	brands    = []string{"Acme", "Globex", "Initech", "Umbrella", "Hooli", "Vandelay"}
	cats      = []string{"electronics", "books", "garden", "toys", "sports", "grocery"}
	tagPool   = []string{"new", "sale", "eco", "premium", "refurb", "import", "local"}
	statuses  = []string{"open", "paid", "shipped", "returned"}
	currs     = []string{"EUR", "USD", "SEK"}
	first     = []string{"Aino", "Eino", "Mika", "Sari", "Ville", "Liisa", "Jukka", "Anna", "Pekka", "Tiina"}
	last      = []string{"Korhonen", "Virtanen", "Nieminen", "Laine", "Heikkinen", "Koskinen"}
)

// Counts returns the scaled entity counts for a config.
func (c Config) Counts() (customers, products, orders int) {
	sf := c.ScaleFactor
	if sf < 0.01 {
		sf = 0.01
	}
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	return scale(BaseCustomers), scale(BaseProducts), scale(BaseOrders)
}

// Generate materializes the dataset.
func Generate(cfg Config) *Dataset {
	rng := NewRNG(cfg.Seed*0x9e3779b9 + 0x5eed)
	nCust, nProd, nOrd := cfg.Counts()
	ds := &Dataset{
		Config:   cfg,
		Feedback: make(map[string]mmvalue.Value),
		Invoices: make(map[string]*xmlstore.Node, nOrd),
	}

	// Customers (relational).
	for i := 1; i <= nCust; i++ {
		ds.Customers = append(ds.Customers, mmvalue.ObjectOf(
			"id", i,
			"name", Pick(rng, first)+" "+Pick(rng, last),
			"age", 18+rng.Intn(60),
			"city", Pick(rng, Cities),
			"country", Pick(rng, countries),
			"vip", rng.Intn(10) == 0,
		))
	}

	// Products (JSON documents).
	for i := 1; i <= nProd; i++ {
		nTags := 1 + rng.Intn(3)
		tags := make([]mmvalue.Value, nTags)
		for ti := 0; ti < nTags; ti++ {
			tags[ti] = mmvalue.String(Pick(rng, tagPool))
		}
		ds.Products = append(ds.Products, mmvalue.ObjectOf(
			"_id", productID(i),
			"title", fmt.Sprintf("%s %s #%d", Pick(rng, brands), Pick(rng, cats), i),
			"brand", Pick(rng, brands),
			"category", Pick(rng, cats),
			"price", float64(rng.Intn(20000))/100+1,
			"stock", 50+rng.Intn(200),
			"tags", mmvalue.Array(tags...),
		))
	}

	// Orders (JSON), Feedback (KV), Invoices (XML), purchase edges.
	// Popular products are bought more often (Zipf over product rank).
	prodZipf := NewZipf(rng, nProd, 0.8)
	custZipf := NewZipf(rng, nCust, 0.5)
	for i := 1; i <= nOrd; i++ {
		oid := orderID(i)
		cid := custZipf.Next() + 1
		nItems := 1 + rng.Intn(MaxItemsPerOrder)
		items := make([]mmvalue.Value, nItems)
		total := 0.0
		for li := 0; li < nItems; li++ {
			p := prodZipf.Next()
			prodObj := ds.Products[p].MustObject()
			price, _ := prodObj.GetOr("price", mmvalue.Float(1)).AsFloat()
			qty := 1 + rng.Intn(3)
			total += price * float64(qty)
			pidVal, _ := prodObj.Get("_id")
			items[li] = mmvalue.ObjectOf("product_id", pidVal.MustString(), "qty", qty, "price", price)
			ds.PurchaseEdges = append(ds.PurchaseEdges, EdgeSpec{
				ID:    fmt.Sprintf("buy-%s-%d", oid, li),
				From:  customerVID(cid),
				To:    ProductVID(pidVal.MustString()),
				Label: "purchased",
				Props: mmvalue.ObjectOf("order", oid, "qty", qty),
			})
		}
		total = float64(int(total*100)) / 100
		day := 1 + rng.Intn(28)
		month := 1 + rng.Intn(12)
		ds.Orders = append(ds.Orders, mmvalue.ObjectOf(
			"_id", oid,
			"customer_id", cid,
			"status", Pick(rng, statuses),
			"date", fmt.Sprintf("2016-%02d-%02d", month, day),
			"total", total,
			"items", mmvalue.Array(items...),
		))

		// Feedback for ~FeedbackRate of orders.
		if rng.Float64() < FeedbackRate {
			key := FeedbackKey(cid, oid)
			ds.Feedback[key] = mmvalue.ObjectOf(
				"rating", 1+rng.Intn(5),
				"text", Pick(rng, []string{"great", "ok", "late delivery", "broken", "perfect", "meh"}),
			)
			ds.FeedbackKeys = append(ds.FeedbackKeys, key)
		}

		// Invoice (XML) mirrors the order.
		inv := xmlstore.NewElement("invoice",
			xmlstore.Attr{Name: "id", Value: oid},
			xmlstore.Attr{Name: "currency", Value: Pick(rng, currs)},
		)
		custEl := xmlstore.NewElement("customer", xmlstore.Attr{Name: "cid", Value: fmt.Sprint(cid)})
		linesEl := xmlstore.NewElement("lines")
		for _, it := range items {
			io := it.MustObject()
			pid, _ := io.Get("product_id")
			qty, _ := io.Get("qty")
			price, _ := io.Get("price")
			pf, _ := price.AsFloat()
			linesEl.Append(xmlstore.NewElement("line",
				xmlstore.Attr{Name: "sku", Value: pid.MustString()},
				xmlstore.Attr{Name: "qty", Value: fmt.Sprint(qty.MustInt())},
				xmlstore.Attr{Name: "price", Value: fmt.Sprintf("%.2f", pf)},
			))
		}
		totalEl := xmlstore.NewElement("total").Append(xmlstore.NewText(fmt.Sprintf("%.2f", total)))
		inv.Append(custEl, linesEl, totalEl)
		ds.Invoices[oid] = inv
	}

	// Social graph: preferential attachment-flavoured knows edges.
	edgeSeen := make(map[[2]int]bool)
	targetEdges := nCust * KnowsPerCustomer / 2
	for len(ds.KnowsEdges) < targetEdges {
		a := rng.Intn(nCust) + 1
		b := custZipf.Next() + 1 // popular customers attract edges
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if edgeSeen[[2]int{a, b}] {
			continue
		}
		edgeSeen[[2]int{a, b}] = true
		ds.KnowsEdges = append(ds.KnowsEdges, EdgeSpec{
			ID:    fmt.Sprintf("knows-%d-%d", a, b),
			From:  customerVID(a),
			To:    customerVID(b),
			Label: "knows",
			Props: mmvalue.ObjectOf("since", 2000+rng.Intn(17)),
		})
	}
	return ds
}

func productID(i int) string   { return fmt.Sprintf("p%06d", i) }
func orderID(i int) string     { return fmt.Sprintf("o%08d", i) }
func customerVID(i int) string { return fmt.Sprintf("c%06d", i) }

// ProductID renders the document id of product number i (1-based).
func ProductID(i int) string { return productID(i) }

// OrderID renders the document id of order number i (1-based).
func OrderID(i int) string { return orderID(i) }

// CustomerVID renders the graph vertex id of customer i (1-based).
func CustomerVID(i int) string { return customerVID(i) }

// ProductVID renders the graph vertex id of the product whose document
// id is productID (they share the numeric suffix); "" when productID is
// not a product id.
func ProductVID(productID string) string {
	if !strings.HasPrefix(productID, "p") {
		return ""
	}
	return "p" + productID[1:]
}

// FeedbackKey renders the key-value key for feedback on an order.
func FeedbackKey(customerID int, orderID string) string {
	return fmt.Sprintf("feedback/%06d/%s", customerID, orderID)
}

// Target is the set of stores a dataset loads into. Both the unified
// engine and the federation expose stores of exactly these types.
type Target struct {
	Relational *relational.DB
	Docs       *document.Store
	Graph      *graph.Store
	KV         *kv.Store
	XML        *xmlstore.Store
}

// Load copies the dataset into the target stores, in transactions of
// txn.BulkBatch records (no cross-store transaction is needed for an
// initial load), and creates the benchmark's standard secondary
// indexes.
func (ds *Dataset) Load(t Target) error { return ds.LoadWithOptions(t, true) }

// LoadWithOptions is Load with control over whether the benchmark's
// standard secondary indexes (customer.city, orders.customer_id,
// products.category) are created — the index-ablation experiment
// loads without them. Every loop commits through its own store's
// manager, so a federation's five managers load the same way one
// unified manager does. The order is fixed (invoices by order id), so
// equal datasets load as equal commit sequences.
func (ds *Dataset) LoadWithOptions(t Target, createIndexes bool) error {
	cust, err := t.Relational.CreateTable("customer", CustomerSchema())
	if err != nil {
		return err
	}
	if err := cust.Manager().Bulk(len(ds.Customers), func(tx *txn.Tx, i int) error {
		return cust.Insert(tx, ds.Customers[i])
	}); err != nil {
		return err
	}
	if createIndexes {
		if err := cust.CreateIndex("city"); err != nil {
			return err
		}
	}

	orders := t.Docs.Collection("orders")
	products := t.Docs.Collection("products")
	docs := t.Docs.Manager()
	if err := docs.Bulk(len(ds.Products), func(tx *txn.Tx, i int) error {
		return products.Insert(tx, ds.Products[i])
	}); err != nil {
		return err
	}
	if err := docs.Bulk(len(ds.Orders), func(tx *txn.Tx, i int) error {
		return orders.Insert(tx, ds.Orders[i])
	}); err != nil {
		return err
	}
	if createIndexes {
		if err := orders.CreateIndex("customer_id"); err != nil {
			return err
		}
		if err := products.CreateIndex("category"); err != nil {
			return err
		}
	}

	if err := t.KV.Manager().Bulk(len(ds.FeedbackKeys), func(tx *txn.Tx, i int) error {
		key := ds.FeedbackKeys[i]
		return t.KV.Put(tx, key, ds.Feedback[key])
	}); err != nil {
		return err
	}

	oids := slices.Sorted(maps.Keys(ds.Invoices))
	if err := t.XML.Manager().Bulk(len(oids), func(tx *txn.Tx, i int) error {
		return t.XML.Put(tx, oids[i], ds.Invoices[oids[i]])
	}); err != nil {
		return err
	}

	// Graph: customer and product vertices, then edges.
	g := t.Graph.Manager()
	if err := g.Bulk(len(ds.Customers), func(tx *txn.Tx, i int) error {
		return t.Graph.AddVertex(tx, graph.VID(customerVID(i+1)), "customer", mmvalue.ObjectOf("id", i+1))
	}); err != nil {
		return err
	}
	if err := g.Bulk(len(ds.Products), func(tx *txn.Tx, i int) error {
		return t.Graph.AddVertex(tx, graph.VID(ProductVID(productID(i+1))), "product", mmvalue.ObjectOf("id", i+1))
	}); err != nil {
		return err
	}
	for _, edges := range [][]EdgeSpec{ds.KnowsEdges, ds.PurchaseEdges} {
		if err := g.Bulk(len(edges), func(tx *txn.Tx, i int) error {
			e := edges[i]
			return t.Graph.AddEdge(tx, graph.EID(e.ID), e.Label, graph.VID(e.From), graph.VID(e.To), e.Props)
		}); err != nil {
			return err
		}
	}
	return nil
}
