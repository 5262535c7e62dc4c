package udbms

import (
	"testing"

	"udbench/internal/mmvalue"
)

// TestCompactCoversGraph: the engine-wide Compact collects graph
// versions too — with writes to the graph alone, everything it reports
// dropped came from there.
func TestCompactCoversGraph(t *testing.T) {
	db := seedSmall(t)
	db.Compact(0)
	for i := 0; i < 4; i++ {
		err := db.Graph.SetVertexProps(nil, "c1", func(mmvalue.Value) (mmvalue.Value, error) {
			return mmvalue.ObjectOf("id", 1, "rev", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := db.Graph.SetVertexProps(nil, "c2", func(mmvalue.Value) (mmvalue.Value, error) {
		return mmvalue.ObjectOf("id", 2, "rev", 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 rewrites of c1 shadow 4 vertex versions; the rewrite of c2
	// shadows its one version.
	if dropped := db.Compact(0); dropped != 5 {
		t.Fatalf("Compact dropped %d graph versions, want 5", dropped)
	}
	if st := db.Stats(); st.Vertices != 3 || st.Edges != 2 {
		t.Fatalf("live graph changed by compact: %+v", st)
	}
}
