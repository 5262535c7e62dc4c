package workload

import (
	"fmt"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/graph"
	"udbench/internal/mmvalue"
)

// refQ6 is the per-buyer Q6 body that one multi-source walk replaced: a
// two-hop walk from each buyer, the buyers and every walk's answer kept
// in one set, one graph request per walk.
func refQ6(st datagen.Target, s session, p Params) (int, error) {
	product := datagen.ProductVID(p.ProductID)
	if product == "" {
		return 0, nil
	}
	s.Hop()
	buyers := st.Graph.KHop(s.GraphTx(), []graph.VID{graph.VID(product)}, 1, graph.In, "purchased")
	reach := map[graph.VID]bool{}
	for _, b := range buyers {
		reach[b] = true
		s.Hop()
		for _, v := range st.Graph.KHop(s.GraphTx(), []graph.VID{b}, 2, graph.Both, "knows") {
			reach[v] = true
		}
	}
	return len(reach), nil
}

// TestQ6MatchesReference pins Q6 against refQ6 on both engines, on the
// loaded data and after rounds of graph writes, for the most-bought
// product (the heavy draw), a product nobody bought, ProductID "" and a
// non-product string. Workload writes never touch "knows", so the test
// writes it itself: knows edges added, one reversing a loaded edge, a
// self-loop, a knows edge to the heavy product (a buyer's neighbour that is not a
// customer), a purchase by a fresh customer with no knows edges, and a
// customer who buys the heavy product twice. It also pins the
// federation's hops: two for a product id, none before Q6 returns 0.
func TestQ6MatchesReference(t *testing.T) {
	fx := newFixture(t, 0.04)
	engines := []struct {
		name string
		e    *nativeEngine
	}{{"udbms", &fx.uni.nativeEngine}, {"federation", &fx.fed.nativeEngine}}
	customer := func(i int) graph.VID { return graph.VID(datagen.CustomerVID(1 + i%len(fx.ds.Customers))) }
	buyers := map[string]map[string]bool{}
	for _, e := range fx.ds.PurchaseEdges {
		if buyers[e.To] == nil {
			buyers[e.To] = map[string]bool{}
		}
		buyers[e.To][e.From] = true
	}
	heavy := datagen.ProductID(1)
	for i := range fx.ds.Products {
		if id := datagen.ProductID(i + 1); len(buyers[datagen.ProductVID(id)]) > len(buyers[datagen.ProductVID(heavy)]) {
			heavy = id
		}
	}
	heavyV := graph.VID(datagen.ProductVID(heavy))
	unsold := datagen.ProductID(len(fx.ds.Products) + 1)
	for _, e := range engines {
		if err := e.e.st.Graph.AddVertex(nil, graph.VID(datagen.ProductVID(unsold)), "product", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for _, id := range []string{heavy, unsold, "", "c000001"} {
			p := Params{ProductID: id}
			for _, e := range engines {
				var got, want int
				if err := e.e.sut.read(func(s session) (err error) {
					if got, err = q6TwoHopBuyers(e.e.st, s, p); err != nil {
						return err
					}
					want, err = refQ6(e.e.st, s, p)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d %s product %q", round, e.name, id)
				if got != want {
					t.Errorf("%s: Q6 = %d, reference %d", label, got, want)
				}
				if round == 0 && id == heavy && want <= len(buyers[string(heavyV)]) {
					t.Errorf("%s: reference %d reaches no one beyond the %d buyers", label, want, len(buyers[string(heavyV)]))
				}
				if id != heavy && want != 0 {
					t.Errorf("%s: reference %d, want 0", label, want)
				}
			}
			hops := 0
			if _, err := q6TwoHopBuyers(fx.fed.st, hopCounter{fedReadSession{fx.fed.F}, &hops}, p); err != nil {
				t.Fatal(err)
			}
			wantHops := 0
			if datagen.ProductVID(id) != "" {
				wantHops = 2
			}
			if hops != wantHops {
				t.Errorf("round %d product %q: %d federation hops, want %d", round, id, hops, wantHops)
			}
		}
		for _, e := range engines {
			g := e.e.st.Graph
			for w := 0; w < 6; w++ {
				i := round*6 + w
				id := func(kind string) graph.EID { return graph.EID(fmt.Sprintf("test-%s-%d", kind, i)) }
				lonely := graph.VID(datagen.CustomerVID(len(fx.ds.Customers) + 1 + i))
				for _, err := range []error{
					g.AddEdge(nil, id("knows"), "knows", customer(3*i), customer(5*i+1), mmvalue.Null),
					g.AddEdge(nil, id("back"), "knows", graph.VID(fx.ds.KnowsEdges[i].To), graph.VID(fx.ds.KnowsEdges[i].From), mmvalue.Null),
					g.AddEdge(nil, id("loop"), "knows", customer(7*i), customer(7*i), mmvalue.Null),
					g.AddEdge(nil, id("product"), "knows", customer(11*i), heavyV, mmvalue.Null),
					g.AddVertex(nil, lonely, "customer", mmvalue.Null),
					g.AddEdge(nil, id("lonely"), "purchased", lonely, heavyV, mmvalue.Null),
					g.AddEdge(nil, id("buy"), "purchased", customer(13*i), heavyV, mmvalue.Null),
					g.AddEdge(nil, id("rebuy"), "purchased", customer(13*i), heavyV, mmvalue.Null),
				} {
					if err != nil {
						t.Fatalf("round %d %s write %d: %v", round, e.name, w, err)
					}
				}
			}
		}
	}
}
