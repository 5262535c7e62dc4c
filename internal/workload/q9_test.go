package workload

import (
	"fmt"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
)

// q9Rows runs Q9's ranking definition in s and returns its ranked rows.
func q9Rows(t *testing.T, s session, p Params) []q9Ranked {
	t.Helper()
	rows, err := q9Ranking(s, p).Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]q9Ranked, len(rows))
	for i, r := range rows {
		o := r.MustObject()
		out[i].v = graph.VID(o.GetOr("v", mmvalue.Null).MustString())
		out[i].d = int(o.GetOr("degree", mmvalue.Null).MustInt())
	}
	return out
}

// TestQ9RankingMatchesReference pins Q9's ranked (v, degree) rows, not
// just its count, against q9SortedRanking on both engines: with TopN
// below and above the number of connected vertices, on the loaded data
// and after rounds of graph writes. Workload writes never touch "knows",
// so the test writes it itself: knows edges added and removed, a
// self-loop, knows edges to a product (a ranked vertex that is not a
// customer, whose feedback prefix Q9 skips) and purchased edges.
func TestQ9RankingMatchesReference(t *testing.T) {
	fx := newFixture(t, 0.04)
	gen := NewParamGen(fx.info, 19, 0)
	engines := []struct {
		name string
		e    *nativeEngine
	}{{"udbms", &fx.uni.nativeEngine}, {"federation", &fx.fed.nativeEngine}}
	customer := func(i int) graph.VID { return graph.VID(datagen.CustomerVID(1 + i%len(fx.ds.Customers))) }
	product := graph.VID(datagen.ProductVID(datagen.ProductID(1)))
	for round := 0; round < 4; round++ {
		connected := map[graph.VID]bool{}
		fx.uni.DB.Graph.Edges(nil, "knows", func(e graph.Edge) bool {
			connected[e.From], connected[e.To] = true, true
			return true
		})
		for _, topN := range []int{7, len(connected) + 1} {
			p := gen.Next()
			p.TopN = topN
			for _, e := range engines {
				var got, want []q9Ranked
				var n, wantN int
				if err := e.e.sut.read(func(s session) (err error) {
					got, want = q9Rows(t, s, p), q9SortedRanking(e.e.st, s, p)
					if n, err = q9Pipeline(e.e.st, s, p); err != nil {
						return err
					}
					wantN, err = q9SortedScan(e.e.st, s, p)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d %s TopN %d", round, e.name, topN)
				if topN > len(connected) && len(want) != len(connected) || topN < len(connected) && len(want) != topN {
					t.Fatalf("%s: the reference ranks %d of %d connected vertices: the TopN case is not the one named", label, len(want), len(connected))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) || n != wantN {
					t.Fatalf("%s:\n got  %v (feedback %d)\n want %v (feedback %d)", label, got, n, want, wantN)
				}
			}
		}
		for _, e := range engines {
			g := e.e.st.Graph
			for w := 0; w < 6; w++ {
				i := round*6 + w
				id := func(kind string) graph.EID { return graph.EID(fmt.Sprintf("test-%s-%d", kind, i)) }
				for _, err := range []error{
					g.AddEdge(nil, id("knows"), "knows", customer(3*i), customer(5*i+1), mmvalue.Null),
					g.RemoveEdge(nil, graph.EID(fx.ds.KnowsEdges[i].ID)),
					g.AddEdge(nil, id("loop"), "knows", customer(7*i), customer(7*i), mmvalue.Null),
					g.AddEdge(nil, id("product"), "knows", customer(11*i), product, mmvalue.Null),
					g.AddEdge(nil, id("buy"), "purchased", customer(13*i), product, mmvalue.Null),
				} {
					if err != nil {
						t.Fatalf("round %d %s write %d: %v", round, e.name, w, err)
					}
				}
			}
		}
	}
}
