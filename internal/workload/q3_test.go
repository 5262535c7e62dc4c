package workload

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
)

// q3Ranked is one (pid, avg) entry of Q3's ranking.
type q3Ranked struct {
	pid string
	avg float64
}

// q3Reference is Q3's hand-written body from before it became a
// pipeline, returning its ranking: a feedback scan, one order get per
// entry, the average rating per product of the orders' line items,
// sorted by average descending, ties by product id, cut at TopN.
func q3Reference(st datagen.Target, s session, p Params) []q3Ranked {
	type acc struct{ sum, n float64 }
	ratings := map[string]*acc{}
	orders := st.Docs.Collection("orders")
	st.KV.Scan(s.KVTx(), "feedback/", "feedback0", func(key string, v mmvalue.Value) bool {
		_, rest, _ := strings.Cut(key, "/")
		_, oid, ok := strings.Cut(rest, "/")
		if !ok || strings.IndexByte(oid, '/') >= 0 {
			return true
		}
		rating, _ := v.MustObject().GetOr("rating", mmvalue.Int(0)).AsFloat()
		o, ok := orders.Get(s.DocTx(), oid)
		if !ok {
			return true
		}
		items, _ := o.MustObject().GetOr("items", mmvalue.Null).AsArray()
		for _, it := range items {
			pid, _ := it.MustObject().Get("product_id")
			a := ratings[pid.MustString()]
			if a == nil {
				a = &acc{}
				ratings[pid.MustString()] = a
			}
			a.sum += rating
			a.n++
		}
		return true
	})
	var rs []q3Ranked
	for pid, a := range ratings {
		rs = append(rs, q3Ranked{pid, a.sum / a.n})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].avg != rs[j].avg {
			return rs[i].avg > rs[j].avg
		}
		return rs[i].pid < rs[j].pid
	})
	return rs[:min(len(rs), p.TopN)]
}

// q3Rows runs Q3's definition in s and returns its ranked rows.
func q3Rows(t *testing.T, s session, p Params) []q3Ranked {
	t.Helper()
	rows, err := q3Ranking(s, p).Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]q3Ranked, len(rows))
	for i, r := range rows {
		o := r.MustObject()
		out[i].pid, _ = o.GetOr("pid", mmvalue.Null).AsString()
		out[i].avg, _ = o.GetOr("rating", mmvalue.Null).AsFloat()
	}
	return out
}

// TestQ3RankingMatchesReference pins Q3's ranked (pid, avg) rows, not
// just their count, against the hand-written reference on both engines:
// with TopN below and above the number of rated products, on the loaded
// data and after interleaved T1/T3 writes that rewrite ratings.
func TestQ3RankingMatchesReference(t *testing.T) {
	fx := newFixture(t, 0.1)
	gen := NewParamGen(fx.info, 17, 0.5)
	engines := []struct {
		name string
		e    *nativeEngine
	}{{"udbms", &fx.uni.nativeEngine}, {"federation", &fx.fed.nativeEngine}}
	for round := 0; round < 4; round++ {
		for _, topN := range []int{7, len(fx.ds.Products) + 1} {
			p := gen.Next()
			p.TopN = topN
			for _, e := range engines {
				var got, want []q3Ranked
				if err := e.e.sut.read(func(s session) error {
					got, want = q3Rows(t, s, p), q3Reference(e.e.st, s, p)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d %s TopN %d", round, e.name, topN)
				if topN > len(fx.ds.Products) && len(want) >= topN || topN < len(fx.ds.Products) && len(want) != topN {
					t.Fatalf("%s: the reference ranks %d products: the TopN case is not the one named", label, len(want))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s:\n got  %v\n want %v", label, got, want)
				}
			}
		}
		// Interleaved T1 and T3 on both engines: new ratings for orders
		// with and without feedback.
		for w := 0; w < 20; w++ {
			p := gen.Next()
			for _, e := range engines {
				write := e.e.OrderUpdate
				if w%2 == 1 {
					write = e.e.WriteFeedback
				}
				if err := write(p); err != nil {
					t.Fatalf("round %d %s write %d: %v", round, e.name, w, err)
				}
			}
		}
	}
}
