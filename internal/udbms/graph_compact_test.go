package udbms

import (
	"testing"

	"udbench/internal/mmvalue"
)

// TestCompactCoversGraph: the graph's writes trim as every model's do,
// but no further than an open snapshot, which reads the vertex props it
// began with; the live graph is unchanged.
func TestCompactCoversGraph(t *testing.T) {
	db := seedSmall(t)
	reader := db.Begin()
	for i := 0; i < 4; i++ {
		err := db.Graph.SetVertexProps(nil, "c1", func(mmvalue.Value) (mmvalue.Value, error) {
			return mmvalue.ObjectOf("id", 1, "rev", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := db.Graph.GetVertex(reader, "c1"); !ok || !mmvalue.Equal(v.Props, mmvalue.ObjectOf("id", 1)) {
		t.Fatalf("the open snapshot reads c1 as %v %v, want its first props", v, ok)
	}
	reader.Abort()
	err := db.Graph.SetVertexProps(nil, "c1", func(mmvalue.Value) (mmvalue.Value, error) {
		return mmvalue.ObjectOf("id", 1, "rev", 4), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Graph.GetVertex(nil, "c1"); !ok || !mmvalue.Equal(v.Props, mmvalue.ObjectOf("id", 1, "rev", 4)) {
		t.Fatalf("latest c1 = %v %v, want rev 4", v, ok)
	}
	if st := db.Stats(); st.Vertices != 3 || st.Edges != 2 {
		t.Fatalf("live graph changed by the trims: %+v", st)
	}
}
