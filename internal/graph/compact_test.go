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

// TestCompactUnlinksDeadEdges: a removed edge leaves the edge records
// and both adjacency lists once its tombstone is below the horizon, and
// not before; a removed vertex leaves the vertex records.
func TestCompactUnlinksDeadEdges(t *testing.T) {
	mgr := txn.NewManager()
	s := NewStore("g", mgr)
	for _, id := range []VID{"a", "b", "c"} {
		if err := s.AddVertex(nil, id, "v", mmvalue.Null); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddEdge(nil, "ab", "knows", "a", "b", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(nil, "ac", "knows", "a", "c", mmvalue.Null); err != nil {
		t.Fatal(err)
	}
	reader := mgr.Begin()
	if err := s.RemoveVertex(nil, "b"); err != nil { // tombstones b and ab
		t.Fatal(err)
	}
	s.Compact(reader.BeginTS())
	if got := s.Neighbors(reader, "a", Out, "knows"); len(got) != 2 {
		t.Fatalf("snapshot lost edges to a compact at its own horizon: %v", got)
	}
	if !holds(s.edges, "ab") || !holds(s.vertices, "b") {
		t.Fatal("a compact at a reader's horizon removed records the reader sees")
	}
	reader.Abort()
	s.Compact(mgr.Published() + 1)
	edge, vertex := holds(s.edges, "ab"), holds(s.vertices, "b")
	s.mu.RLock()
	out, in := len(s.out["a"]["knows"]), len(s.in["b"]["knows"])
	s.mu.RUnlock()
	if edge || vertex || out != 1 || in != 0 {
		t.Fatalf("after compact: edge ab present=%v, vertex b present=%v, out[a]=%d, in[b]=%d; want false, false, 1, 0",
			edge, vertex, out, in)
	}
	if got := s.Neighbors(nil, "a", Out, "knows"); len(got) != 1 || got[0].ID != "ac" {
		t.Fatalf("live edge lost: %v", got)
	}
}

// holds reports whether r still has key's record, live or dead.
func holds[T any](r *txn.Records[T], key string) bool {
	tx := r.Manager().Begin()
	defer tx.Abort()
	_, ok, err := r.LockExisting(tx, key)
	return ok && err == nil
}
