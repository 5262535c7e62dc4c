// Package relbe is the comparative one-model backend: the
// relational+document+key-value expressible slice of the benchmark,
// shredded into a private relational.DB. It runs on the same MVCC,
// lock and record layer as the unified engine, so the gap the harness
// measures against it is the data model — one instead of five — and
// not a different storage engine.
package relbe

import (
	"fmt"
	"sort"
	"strings"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/workload"
)

// Backend is a partial backend: its capability descriptor advertises
// the queries whose data shreds into flat tables (Q1, Q3, Q4, Q8, Q12,
// Q13); every other query returns workload.ErrUnsupported before
// touching any data, and it has no native transactions.
type Backend struct {
	// The tables of a private relational database on its own
	// txn.Manager. Every dataset has customers, orders and line items;
	// kv is nil when no order drew feedback.
	customer, orders, items, kv *relational.Table
}

// Open shreds ds into a fresh relational database and returns the
// backend fronting it.
func Open(ds *datagen.Dataset) (*Backend, error) {
	db := relational.NewDB(txn.NewManager())
	if err := load(ds, db); err != nil {
		return nil, err
	}
	b := &Backend{}
	b.customer, _ = db.Table("customer")
	b.orders, _ = db.Table("orders")
	b.items, _ = db.Table("orders_items")
	b.kv, _ = db.Table("kv")
	if b.customer == nil || b.orders == nil || b.items == nil {
		return nil, fmt.Errorf("relbe: dataset without customers, orders or line items")
	}
	return b, nil
}

// Name implements workload.Backend.
func (b *Backend) Name() string { return "relational" }

// Capabilities implements workload.Backend: the relational, document,
// and key-value models shred; graph and XML do not, which excludes
// their queries, the native transaction set, and snapshot reads.
func (b *Backend) Capabilities() workload.Capabilities {
	return workload.Capabilities{
		Models:  []string{"relational", "document", "kv"},
		Queries: []workload.QueryID{workload.Q1, workload.Q3, workload.Q4, workload.Q8, workload.Q12, workload.Q13},
	}
}

// RunQuery implements workload.Backend for the supported subset; any
// other query returns the typed unsupported error without touching
// the database.
func (b *Backend) RunQuery(q workload.QueryID, p workload.Params) (int, error) {
	switch q {
	case workload.Q1:
		return b.q1(p)
	case workload.Q3:
		return b.q3(p)
	case workload.Q4:
		return b.q4(p)
	case workload.Q8:
		return len(b.cityRevenue()), nil
	case workload.Q12:
		return b.q12(p)
	case workload.Q13:
		return b.q13(p)
	}
	return 0, fmt.Errorf("relational backend does not express %s: %w", q, workload.ErrUnsupported)
}

// --- helpers ---

// scanKeys streams the rows of a string-keyed table whose key lies in
// [from, to), in key order. The rows are shared with the store.
func scanKeys(t *relational.Table, from, to string, fn func(row *mmvalue.Object)) {
	var buf [64]mmvalue.Value
	t.StreamRangeBatch(nil, relational.EncodeKey(mmvalue.String(from)), relational.EncodeKey(mmvalue.String(to)),
		nil, buf[:0], func(rows []mmvalue.Value) bool {
			for _, r := range rows {
				fn(r.MustObject())
			}
			return true
		})
}

func str(o *mmvalue.Object, col string) string {
	s, _ := o.GetOr(col, mmvalue.Null).AsString()
	return s
}

func num(o *mmvalue.Object, col string) float64 {
	f, _ := o.GetOr(col, mmvalue.Null).AsFloat()
	return f
}

// --- queries ---

// q1 is the customer profile: the relational row, the customer's
// order rows, and their feedback keys.
func (b *Backend) q1(p workload.Params) (int, error) {
	if _, ok := b.customer.Get(nil, p.CustomerID); !ok {
		return 0, nil
	}
	n := 1 + b.orders.Query(nil).Where(relational.Col("customer_id").Eq(p.CustomerID)).Count()
	if b.kv != nil {
		prefix := fmt.Sprintf("feedback/%06d/", p.CustomerID)
		scanKeys(b.kv, prefix, prefix[:len(prefix)-1]+"0", func(*mmvalue.Object) { n++ }) // "0" is '/'+1
	}
	return n, nil
}

// q3 ranks products by average feedback rating: join feedback keys to
// order line items, aggregate per product, take the top N.
func (b *Backend) q3(p workload.Params) (int, error) {
	if b.kv == nil {
		return 0, nil // no feedback: nothing rated
	}
	type entry struct {
		oid    string
		rating float64
	}
	var entries []entry
	scanKeys(b.kv, "feedback/", "feedback0", func(row *mmvalue.Object) {
		// Keys are feedback/<customer>/<order>.
		if parts := strings.Split(str(row, "_id"), "/"); len(parts) == 3 {
			entries = append(entries, entry{parts[2], num(row, "rating")})
		}
	})
	type acc struct{ sum, n float64 }
	ratings := map[string]*acc{}
	for _, e := range entries {
		for _, it := range b.items.Query(nil).Where(relational.Col("_parent").Eq(e.oid)).Project("product_id").Rows() {
			pid := str(it.MustObject(), "product_id")
			a := ratings[pid]
			if a == nil {
				a = &acc{}
				ratings[pid] = a
			}
			a.sum += e.rating
			a.n++
		}
	}
	type ranked struct {
		pid string
		avg float64
	}
	rs := make([]ranked, 0, len(ratings))
	for pid, a := range ratings {
		rs = append(rs, ranked{pid, a.sum / a.n})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].avg != rs[j].avg {
			return rs[i].avg > rs[j].avg
		}
		return rs[i].pid < rs[j].pid
	})
	return min(len(rs), p.TopN), nil
}

// q4 counts the city's customers whose summed order totals clear the
// threshold: the city's customers (index-served) hash-joined with
// their orders, summed per customer in order key order.
func (b *Backend) q4(p workload.Params) (int, error) {
	inCity := b.customer.Query(nil).Where(relational.Col("city").Eq(p.City)).Project("id")
	sums := map[string]float64{}
	for _, r := range inCity.HashJoin(b.orders, "id", "customer_id") {
		o := r.MustObject()
		sums[o.GetOr("id", mmvalue.Null).Key()] += num(o, "orders.total")
	}
	count := 0
	for _, sum := range sums {
		if sum > p.Threshold {
			count++
		}
	}
	if p.Threshold < 0 {
		// Zero-order customers also clear a negative threshold; the
		// inner join cannot see them. Unreachable with the parameter
		// generator's positive constant, kept exact anyway.
		count += inCity.Count() - len(sums)
	}
	return count, nil
}

// cityRevenue sums order totals per customer city (Q8 counts the
// cities, Q12 cuts them by revenue). Orders are the join spine, so the
// per-city sums accumulate in order key order exactly like the native
// map accumulation; orders of unknown customers have no city.
func (b *Backend) cityRevenue() map[string]float64 {
	revenue := map[string]float64{}
	for _, r := range b.orders.Query(nil).Project("customer_id", "total").HashJoin(b.customer, "customer_id", "id") {
		o := r.MustObject()
		revenue[str(o, "customer.city")] += num(o, "total")
	}
	delete(revenue, "")
	return revenue
}

// q12 counts the cities whose revenue clears threshold*50.
func (b *Backend) q12(p workload.Params) (int, error) {
	count := 0
	for _, rev := range b.cityRevenue() {
		if rev > p.Threshold*50 {
			count++
		}
	}
	return count, nil
}

// q13 takes the top-N customers by summed order revenue and counts
// the distinct cities they live in. The cut uses the same id-ascending
// stable sort the native engines use, so revenue ties resolve
// identically.
func (b *Backend) q13(p workload.Params) (int, error) {
	groups, err := b.orders.Query(nil).GroupBy("customer_id", relational.Agg{Fn: "sum", Column: "total", As: "revenue"})
	if err != nil {
		return 0, fmt.Errorf("relbe: %w", err)
	}
	type spender struct {
		cid int64
		rev float64
	}
	top := make([]spender, 0, len(groups))
	for _, g := range groups {
		o := g.MustObject()
		if cid, ok := o.GetOr("customer_id", mmvalue.Null).AsInt(); ok {
			top = append(top, spender{cid, num(o, "revenue")})
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].cid < top[j].cid })
	sort.SliceStable(top, func(i, j int) bool { return top[i].rev > top[j].rev })
	cities := map[string]bool{}
	for _, sp := range top[:min(len(top), p.TopN)] {
		if row, ok := b.customer.Get(nil, sp.cid); ok {
			if city := str(row.MustObject(), "city"); city != "" {
				cities[city] = true
			}
		}
	}
	return len(cities), nil
}
