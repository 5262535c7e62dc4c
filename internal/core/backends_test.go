package core

import (
	"slices"
	"strings"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/workload"
)

// TestNewBackend builds each backend from one dataset: every name
// yields a backend of that name whose Q1 agrees with the unified
// engine's on the same draws, and an unknown name errors naming all
// three backends.
func TestNewBackend(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.03, Seed: 42})
	gen := workload.NewParamGen(workload.InfoOf(ds), 7, 0.5)
	draws := []workload.Params{gen.Next(), gen.Next(), gen.Next()}
	var want []int
	for _, name := range []string{"udbms", "federation", "relational"} {
		be, err := NewBackend(name, ds, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if be.Name() != name {
			t.Errorf("NewBackend(%q).Name() = %q", name, be.Name())
		}
		for i, p := range draws {
			n, err := be.RunQuery(workload.Q1, p)
			if err != nil {
				t.Fatalf("%s Q1: %v", name, err)
			}
			if name == "udbms" {
				want = append(want, n)
			} else if n != want[i] {
				t.Errorf("%s Q1 draw %d = %d, udbms = %d", name, i, n, want[i])
			}
		}
	}
	if slices.Equal(want, make([]int, len(want))) {
		t.Error("Q1 returned 0 on every draw: the agreement is vacuous")
	}
	be, err := NewBackend("nosuch", ds, 0)
	if err == nil {
		t.Fatalf("NewBackend(nosuch) built %T, want an error", be)
	}
	for _, name := range []string{"nosuch", "udbms", "federation", "relational"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}
