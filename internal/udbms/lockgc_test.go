package udbms

import (
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
)

// A Delete of a key that does not exist takes (and releases) an
// exclusive lock on a name with no version chain, leaving a lock entry
// behind. A storm of such misses must not grow the lock table
// unboundedly: Compact is the GC point that sweeps the idle entries.
func TestCompactSweepsProbedLockEntries(t *testing.T) {
	db := Open()
	schema, err := relational.NewSchema("id", relational.Column{Name: "id", Type: relational.TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Relational.CreateTable("sparse", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(nil, mmvalue.ObjectOf("id", 1)); err != nil {
		t.Fatal(err)
	}

	base := db.Manager().LockEntryCount()

	const misses = 2000
	for i := 0; i < misses; i++ {
		if err := tbl.Delete(nil, 1000000+i); err != nil {
			t.Fatal(err)
		}
	}
	grown := db.Manager().LockEntryCount()
	if grown < base+misses {
		t.Fatalf("miss storm should leave >= %d lock entries, have %d (base %d)", misses, grown, base)
	}

	db.Compact(0)

	after := db.Manager().LockEntryCount()
	if after >= base+misses/10 {
		t.Fatalf("Compact left %d lock entries (base %d): miss-storm entries were not swept", after, base)
	}

	// The store still works after the sweep: hits, misses and writes.
	if _, ok := tbl.Get(nil, 1); !ok {
		t.Fatal("row 1 missing after sweep")
	}
	if err := tbl.Delete(nil, 424242); err != nil {
		t.Fatalf("Delete miss after sweep: %v", err)
	}
	if err := tbl.Insert(nil, mmvalue.ObjectOf("id", 2)); err != nil {
		t.Fatal(err)
	}
}
