package graph

import (
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// TestCompactDropsShadowedVersions: property rewrites trim the vertex
// chain as they go, but never past an open snapshot, which keeps
// reading the version it began with; the newest stays readable.
func TestCompactDropsShadowedVersions(t *testing.T) {
	mgr := txn.NewManager()
	s := NewStore("g", mgr)
	if err := s.AddVertex(nil, "v", "thing", mmvalue.ObjectOf("n", 0)); err != nil {
		t.Fatal(err)
	}
	nOf := func(tx *txn.Tx) int64 {
		t.Helper()
		v, ok := s.GetVertex(tx, "v")
		if !ok {
			t.Fatal("vertex v lost")
		}
		n, _ := v.Props.MustObject().Get("n")
		return n.MustInt()
	}
	reader := mgr.Begin()
	const n = 7
	for i := 1; i <= n; i++ {
		err := s.SetVertexProps(nil, "v", func(mmvalue.Value) (mmvalue.Value, error) {
			return mmvalue.ObjectOf("n", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := nOf(reader); got != 0 {
		t.Fatalf("the open snapshot reads n = %d, want 0", got)
	}
	reader.Abort()
	if got := nOf(nil); got != n {
		t.Fatalf("newest version lost: n = %d, want %d", got, n)
	}
}
