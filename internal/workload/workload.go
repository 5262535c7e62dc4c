// Package workload defines the UDBMS benchmark's operation set:
// thirteen multi-model read queries (Q1–Q13, the last three being
// analytic group-by/top-N shapes that exercise the vectorized
// executor), four cross-model transactions (T1–T4, T1 being the
// paper's order-update example), and a concurrent closed-loop driver
// with Zipf-skewed parameter selection.
//
// Every operation has one body — for ten of the queries a
// udbms.Pipeline obtained from the session, for Q2, Q6, Q10 and the
// transactions Go over the session's store handles — run by one native
// engine adapter (engines.go) under either of two transaction
// disciplines: the unified engine gives the body one snapshot/commit
// across all models, while the federation charges a network hop per
// store request, the executor's included, and coordinates writes with
// 2PC. The benchmark's T2/F2/F3 experiments are exactly the comparison
// of these two disciplines.
package workload

import (
	"fmt"

	"udbench/internal/datagen"
)

// QueryID names one of the thirteen benchmark queries.
type QueryID int

// The thirteen multi-model queries. Comments give the models each touches:
// R = relational, D = document, G = graph, K = key-value, X = XML.
const (
	// Q1 CustomerProfile (R+D+K): one customer with orders and feedback.
	Q1 QueryID = iota + 1
	// Q2 FriendsPurchases (G+D): products bought by a customer's friends.
	Q2
	// Q3 TopRatedProducts (K+D): top-N products by average feedback rating.
	Q3
	// Q4 CityBigSpenders (R+D): customers in a city whose order total
	// exceeds a threshold.
	Q4
	// Q5 InvoiceTotalsByCurrency (X): revenue grouped by invoice currency.
	Q5
	// Q6 TwoHopBuyers (G+D): customers within two knows-hops of anyone
	// who bought a product — its buyers plus one walk from all of them.
	Q6
	// Q7 OrdersWithProduct (D+X): orders containing a product, with
	// their invoice totals.
	Q7
	// Q8 RevenueByCity (R+D): order revenue grouped by customer city.
	Q8
	// Q9 InfluencerFeedback (G+K): feedback volume of the most
	// connected customers.
	Q9
	// Q10 FullChain (R+D+G+K+X): the five-model join — customer,
	// orders, products, feedback, invoices.
	Q10
	// Q11 FriendNetworkSpend (G+R+D): distinct cities among a
	// customer's two-hop friend network whose order totals exceed the
	// threshold — a multi-hop graph seed driving a relational+document
	// join.
	Q11
	// Q12 CityRevenueHaving (R+D): cities whose total order revenue
	// exceeds a (scaled) threshold — group-by with a HAVING-style
	// filter over the aggregate.
	Q12
	// Q13 TopSpenders (R+D): distinct cities among the top-N customers
	// by order revenue — top-N over an aggregate.
	Q13
)

// queryDef is one row of the query table — the only place a query is
// listed, and body its one definition: both engines run it, each
// through its own session (pipeline_queries.go for the ten written over
// the session's pipeline, ops.go for Q2, Q6 and Q10).
type queryDef struct {
	models string
	body   func(st datagen.Target, s session, p Params) (int, error)
}

// queryTable is indexed by query id (slot 0 is unused).
var queryTable = [...]queryDef{
	Q1:  {"R+D+K", q1Pipeline},
	Q2:  {"G+D", q2FriendsPurchases},
	Q3:  {"K+D", q3Pipeline},
	Q4:  {"R+D", q4Pipeline},
	Q5:  {"X", q5Pipeline},
	Q6:  {"G+D", q6TwoHopBuyers},
	Q7:  {"D+X", q7Pipeline},
	Q8:  {"R+D", q8Pipeline},
	Q9:  {"G+K", q9Pipeline},
	Q10: {"R+D+G+K+X", q10FullChain},
	Q11: {"G+R+D", q11Pipeline},
	Q12: {"R+D", q12Pipeline},
	Q13: {"R+D", q13Pipeline},
}

// def looks q up in the query table.
func (q QueryID) def() (*queryDef, error) {
	if q < Q1 || int(q) >= len(queryTable) {
		return nil, fmt.Errorf("workload: unknown query %d", int(q))
	}
	return &queryTable[q], nil
}

// AllQueries lists the query ids in table order.
var AllQueries = func() []QueryID {
	ids := make([]QueryID, 0, len(queryTable)-1)
	for q := Q1; int(q) < len(queryTable); q++ {
		ids = append(ids, q)
	}
	return ids
}()

// String returns "Q1".."Q13".
func (q QueryID) String() string { return fmt.Sprintf("Q%d", int(q)) }

// Models returns the data models the query touches (for reporting).
func (q QueryID) Models() string {
	if d, err := q.def(); err == nil {
		return d.models
	}
	return "?"
}

// Params carries the inputs of one operation instance.
type Params struct {
	CustomerID int
	OrderID    string
	ProductID  string
	// ProductID2 is a second, distinct product (stock transfers).
	ProductID2 string
	City       string
	TopN       int
	Threshold  float64
	Rating     int
	// FreshID is a never-used order id for NewOrder inserts (set by
	// the driver, unused by read queries).
	FreshID string
}

// Engine is a fully native system under test: the core Backend
// contract plus the T2 transaction set. The unified and federation
// engines (and the remote engine fronting them) implement it; both
// in-process implementations must return identical results for
// identical dataset + params, which the equivalence tests assert.
// External backends implement only Backend and advertise what subset
// they support through Capabilities — see backend.go.
type Engine interface {
	Backend
	TxnEngine
}

// Info describes dataset cardinalities the parameter generator needs.
type Info struct {
	Customers int
	Products  int
	Orders    int
}

// InfoOf derives Info from a generated dataset.
func InfoOf(ds *datagen.Dataset) Info {
	return Info{Customers: len(ds.Customers), Products: len(ds.Products), Orders: len(ds.Orders)}
}

// ParamGen draws operation parameters; customer and order choices are
// Zipf-skewed with the given theta (0 = uniform) to model contention.
type ParamGen struct {
	info  Info
	rng   *datagen.RNG
	custZ *datagen.Zipf
	ordZ  *datagen.Zipf
	prodZ *datagen.Zipf
}

// NewParamGen builds a generator over the dataset with skew theta.
func NewParamGen(info Info, seed uint64, theta float64) *ParamGen {
	rng := datagen.NewRNG(seed)
	return &ParamGen{
		info:  info,
		rng:   rng,
		custZ: datagen.NewZipf(rng, info.Customers, theta),
		ordZ:  datagen.NewZipf(rng, info.Orders, theta),
		prodZ: datagen.NewZipf(rng, info.Products, theta),
	}
}

// Next draws a parameter set. ProductID2 is always distinct from
// ProductID (wrapping to the next product when the skewed draw
// collides).
func (g *ParamGen) Next() Params {
	p1 := g.prodZ.Next() + 1
	p2 := g.prodZ.Next() + 1
	if p2 == p1 {
		p2 = p1%g.info.Products + 1
	}
	if p2 == p1 { // single-product dataset
		p2 = p1
	}
	return Params{
		CustomerID: g.custZ.Next() + 1,
		OrderID:    datagen.OrderID(g.ordZ.Next() + 1),
		ProductID:  datagen.ProductID(p1),
		ProductID2: datagen.ProductID(p2),
		City:       datagen.Pick(g.rng, datagen.Cities),
		TopN:       10,
		Threshold:  200,
		Rating:     1 + g.rng.Intn(5),
	}
}

// NewOrderID draws a fresh, never-generated order id for T2 inserts.
// Ids are unique per (run, client, seq) triple: the driver threads a
// process-unique run nonce through so that back-to-back RunMix calls
// against the same loaded store can never re-insert an id an earlier
// run already used (which would inflate T2 duplicate-key errors on
// every run after the first — exactly what a rate sweep does).
func (g *ParamGen) NewOrderID(run uint64, client int, seq int) string {
	return fmt.Sprintf("o-new-r%d-%03d-%08d", run, client, seq)
}
