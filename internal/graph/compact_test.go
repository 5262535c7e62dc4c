package graph

import (
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// TestCompactDropsShadowedVersions: N property rewrites leave N
// shadowed versions behind the newest; Compact at the watermark drops
// them all and keeps the newest readable.
func TestCompactDropsShadowedVersions(t *testing.T) {
	mgr := txn.NewManager()
	s := NewStore("g", mgr)
	if err := s.AddVertex(nil, "v", "thing", mmvalue.ObjectOf("n", 0)); err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 1; i <= n; i++ {
		err := s.SetVertexProps(nil, "v", func(mmvalue.Value) (mmvalue.Value, error) {
			return mmvalue.ObjectOf("n", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// AddVertex + n SetVertexProps = n+1 versions, n of them shadowed.
	if got := s.Compact(mgr.Published() + 1); got != n {
		t.Fatalf("Compact dropped %d versions, want %d", got, n)
	}
	v, ok := s.GetVertex(nil, "v")
	if got, _ := v.Props.MustObject().Get("n"); !ok || got.MustInt() != n {
		t.Fatalf("newest version lost: %v %v", v, ok)
	}
	if again := s.Compact(mgr.Published() + 1); again != 0 {
		t.Fatalf("second Compact dropped %d", again)
	}
}
