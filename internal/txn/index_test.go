package txn

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// rec is an indexed test record: the index lists it under val.
type rec struct{ val, payload string }

func newIndexed(t testing.TB) *Records[rec] {
	t.Helper()
	r := NewRecords[rec](NewManager(), "r/")
	if !r.CreateIndex("val", func(v rec) (string, bool) { return v.val, v.val != "" }) {
		t.Fatal("CreateIndex refused a new name")
	}
	return r
}

// commit commits v under key and returns its commit timestamp.
func commit(r *Records[rec], key string, v rec) (TS, error) {
	tx := r.Manager().Begin()
	c, err := r.Lock(tx, key)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	r.Stage(tx, c, v)
	return tx.Commit()
}

func write(t testing.TB, r *Records[rec], key string, v rec) {
	t.Helper()
	if _, err := commit(r, key, v); err != nil {
		t.Fatal(err)
	}
}

// lookup returns what Lookup hands back under val, in order.
func lookup(r *Records[rec], tx *Tx, val string) (keys []string, vals []rec) {
	r.Lookup(tx, "val", val, func(key string, v rec) bool {
		keys = append(keys, key)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

func TestIndexLookupKeyOrder(t *testing.T) {
	r := newIndexed(t)
	for _, k := range []string{"k5", "k1", "k9", "k3", "k7", "k0"} {
		write(t, r, k, rec{"a", k})
	}
	write(t, r, "k4", rec{"b", "k4"})
	if keys, _ := lookup(r, nil, "a"); !slices.Equal(keys, []string{"k0", "k1", "k3", "k5", "k7", "k9"}) {
		t.Errorf("Lookup(a) = %v, want key order", keys)
	}
	// A backfilled index lists the same records in the same order.
	if !r.CreateIndex("val2", func(v rec) (string, bool) { return v.val, true }) {
		t.Fatal("CreateIndex refused a new name")
	}
	var keys []string
	r.Lookup(nil, "val2", "a", func(key string, _ rec) bool { keys = append(keys, key); return true })
	if !slices.Equal(keys, []string{"k0", "k1", "k3", "k5", "k7", "k9"}) {
		t.Errorf("backfilled Lookup(a) = %v, want key order", keys)
	}
}

func TestIndexLookupMovedValueIsRechecked(t *testing.T) {
	r := newIndexed(t)
	write(t, r, "k1", rec{"a", "old"})
	write(t, r, "k1", rec{"b", "new"})
	keys, vals := lookup(r, nil, "a")
	if !slices.Equal(keys, []string{"k1"}) || vals[0] != (rec{"b", "new"}) {
		t.Fatalf("Lookup(a) = %v %v, want the moved record at its visible value", keys, vals)
	}
	var rechecked []string
	r.Lookup(nil, "val", "a", func(key string, v rec) bool {
		if v.val == "a" {
			rechecked = append(rechecked, key)
		}
		return true
	})
	if len(rechecked) != 0 {
		t.Errorf("re-checked Lookup(a) = %v, want none", rechecked)
	}
	if keys, _ := lookup(r, nil, "b"); !slices.Equal(keys, []string{"k1"}) {
		t.Errorf("Lookup(b) = %v, want [k1]", keys)
	}
}

func TestIndexLookupSnapshot(t *testing.T) {
	r := newIndexed(t)
	write(t, r, "k1", rec{"a", "x"})
	tx := r.Manager().Begin()
	defer tx.Abort()
	write(t, r, "k0", rec{"a", "y"})
	if keys, _ := lookup(r, tx, "a"); !slices.Equal(keys, []string{"k1"}) {
		t.Errorf("old snapshot Lookup(a) = %v, want [k1]", keys)
	}
	if keys, _ := lookup(r, nil, "a"); !slices.Equal(keys, []string{"k0", "k1"}) {
		t.Errorf("latest Lookup(a) = %v, want [k0 k1]", keys)
	}
}

// TestIndexLookupUnderWriters has readers look up one hot bucket while
// writers insert into it keys that sort first, in the middle and last
// (run it under -race). Every read must be in strict key order — so
// duplicate-free — and list every record committed at or before the
// reader's snapshot.
func TestIndexLookupUnderWriters(t *testing.T) {
	r := newIndexed(t)
	const per = 300
	for i := 0; i < per; i++ {
		write(t, r, fmt.Sprintf("m%04d", 2*i), rec{"hot", "seed"})
	}
	var (
		mu        sync.Mutex
		committed = map[string]TS{}
		writers   sync.WaitGroup
		done      = make(chan struct{})
	)
	for _, keyOf := range []func(int) string{
		func(i int) string { return fmt.Sprintf("a%04d", per-i) }, // first
		func(i int) string { return fmt.Sprintf("m%04d", 2*i+1) }, // middle
		func(i int) string { return fmt.Sprintf("z%04d", i) },     // last
	} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < per; i++ {
				key := keyOf(i)
				ts, err := commit(r, key, rec{"hot", key})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				committed[key] = ts
				mu.Unlock()
			}
		}()
	}
	go func() { writers.Wait(); close(done) }()
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 0 {
						return
					}
				default:
				}
				tx := r.Manager().Begin()
				keys, _ := lookup(r, tx, "hot")
				snap := tx.BeginTS()
				tx.Abort()
				for i := 1; i < len(keys); i++ {
					if keys[i-1] >= keys[i] {
						t.Errorf("read out of order or duplicated: %q then %q", keys[i-1], keys[i])
						return
					}
				}
				mu.Lock()
				for key, ts := range committed {
					if _, found := slices.BinarySearch(keys, key); ts <= snap && !found {
						t.Errorf("snapshot %d misses %q committed at %d", snap, key, ts)
					}
				}
				mu.Unlock()
				if t.Failed() {
					return
				}
			}
		}()
	}
	readers.Wait()
	if keys, _ := lookup(r, nil, "hot"); len(keys) != 4*per {
		t.Errorf("final Lookup lists %d records, want %d", len(keys), 4*per)
	}
}

// BenchmarkIndexLookup reads one bucket of 1, 8 or 40 records through
// Lookup: warm, and right after a commit that rewrites one of the
// bucket's records at the same indexed value (so the commit hook finds
// its entry in place and returns).
func BenchmarkIndexLookup(b *testing.B) {
	for _, size := range []int{1, 8, 40} {
		r := newIndexed(b)
		const buckets = 100
		for i := 0; i < size*buckets; i++ {
			write(b, r, fmt.Sprintf("k%05d", i), rec{fmt.Sprintf("v%03d", i%buckets), "p"})
		}
		read := func(b *testing.B) {
			n := 0
			r.Lookup(nil, "val", "v007", func(string, rec) bool { n++; return true })
			if n != size {
				b.Fatalf("Lookup listed %d records, want %d", n, size)
			}
		}
		b.Run(fmt.Sprintf("bucket%d/warm", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read(b)
			}
		})
		b.Run(fmt.Sprintf("bucket%d/after-commit", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				write(b, r, "k00007", rec{"v007", fmt.Sprint(i)})
				b.StartTimer()
				read(b)
			}
		})
	}
}
