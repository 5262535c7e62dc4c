package txn

import (
	"fmt"
	"sync"
	"testing"
)

// put commits value as key's record in a transaction of its own.
func put(t *testing.T, r *Records[int], key string, value int) {
	t.Helper()
	err := r.Manager().RunWith(DefaultRetries, func(tx *Tx) error {
		c, err := r.Lock(tx, key)
		if err == nil {
			r.Stage(tx, c, value)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenSnapshotPinsItsVersions holds a snapshot open across 10 000
// commits to the keys it reads: it keeps reading the versions it began
// with, and once it ends, the next write to each key leaves at most two
// versions on that key's chain, the write's own and the newest
// committed one.
func TestOpenSnapshotPinsItsVersions(t *testing.T) {
	const keys, commits = 10, 10000
	m := NewManager()
	r := NewRecords[int](m, "k/")
	key := func(k int) string { return fmt.Sprintf("%02d", k) }
	for k := 0; k < keys; k++ {
		put(t, r, key(k), k)
	}
	reader := m.Begin()
	check := func(step int) {
		t.Helper()
		for k := 0; k < keys; k++ {
			if v, ok := r.Get(reader, key(k)); !ok || v != k {
				t.Fatalf("after %d commits the open snapshot reads %s as (%d, %v), want %d", step, key(k), v, ok, k)
			}
		}
	}
	for i := 1; i <= commits; i++ {
		put(t, r, key(i%keys), keys+i)
		if i%1000 == 0 {
			check(i)
		}
	}
	reader.Abort()
	for k := 0; k < keys; k++ {
		c, _ := r.chains.Get(key(k))
		if n := c.Len(); n < commits/keys {
			t.Fatalf("%s holds %d versions under the snapshot, want at least %d", key(k), n, commits/keys)
		}
		put(t, r, key(k), -k)
		if n := c.Len(); n > 2 {
			t.Errorf("%s holds %d versions after a write with no snapshot open, want at most 2", key(k), n)
		}
		if v, ok := r.Get(nil, key(k)); !ok || v != -k {
			t.Errorf("latest %s = (%d, %v), want %d", key(k), v, ok, -k)
		}
	}
}

// TestSnapshotsBegunUnderWritersReadTheirVersions races snapshot
// readers that begin and end all the time against writers that commit
// and trim a few keys: every snapshot must find every key, which has
// been committed since before the readers started. A Begin that read
// the watermark before taking the registry mutex fails here: a reader
// parked on the mutex registers its stale watermark behind newer ones,
// below the horizon the writers trim at, and loses its versions.
func TestSnapshotsBegunUnderWritersReadTheirVersions(t *testing.T) {
	const keys, writers, readers, rounds = 3, 2, 4, 3000
	m := NewManager()
	r := NewRecords[int](m, "k/")
	key := func(k int) string { return fmt.Sprint(k) }
	for k := 0; k < keys; k++ {
		put(t, r, key(k), 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				put(t, r, key((i+w)%keys), i)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				for k := 0; k < keys; k++ {
					if _, ok := r.Get(tx, key(k)); !ok {
						t.Errorf("a snapshot at %d lost key %d to a trim (horizon %d)", tx.BeginTS(), k, m.Horizon())
					}
				}
				tx.Abort()
			}
		}()
	}
	wg.Wait()
}
