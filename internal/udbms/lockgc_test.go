package udbms

import (
	"fmt"
	"testing"

	"udbench/internal/mmvalue"
)

// An Update of a key that does not exist takes (and releases) an
// exclusive lock on a name with no version chain, leaving a lock entry
// behind. A storm of such misses must not grow the lock table
// unboundedly: Compact is the GC point that sweeps the idle entries.
func TestCompactSweepsProbedLockEntries(t *testing.T) {
	db := Open()
	coll := db.Docs.Collection("sparse")
	if err := coll.Insert(nil, mmvalue.ObjectOf("_id", "1")); err != nil {
		t.Fatal(err)
	}
	same := func(doc mmvalue.Value) (mmvalue.Value, error) { return doc, nil }

	base := db.Manager().LockEntryCount()

	const misses = 2000
	for i := 0; i < misses; i++ {
		if err := coll.Update(nil, fmt.Sprint(1000000+i), same); err == nil {
			t.Fatal("Update of a missing key succeeded")
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
	if _, ok := coll.Get(nil, "1"); !ok {
		t.Fatal("document 1 missing after sweep")
	}
	if err := coll.Update(nil, "424242", same); err == nil {
		t.Fatal("Update miss after sweep succeeded")
	}
	if err := coll.Insert(nil, mmvalue.ObjectOf("_id", "2")); err != nil {
		t.Fatal(err)
	}
}
