package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"udbench/internal/mmvalue"
	"udbench/internal/ordmap"
	"udbench/internal/txn"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	return NewStore("kv", txn.NewManager())
}

func TestPutGetAutocommit(t *testing.T) {
	s := newTestStore(t)
	if err := s.Put(nil, "a", mmvalue.Int(1)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(nil, "a")
	if !ok || !mmvalue.Equal(v, mmvalue.Int(1)) {
		t.Fatalf("Get = (%s, %v)", v, ok)
	}
	if _, ok := s.Get(nil, "missing"); ok {
		t.Error("missing key should not be found")
	}
	if err := s.Put(nil, "", mmvalue.Int(0)); err == nil {
		t.Error("empty key should be rejected")
	}
}

func TestPutOverwrite(t *testing.T) {
	s := newTestStore(t)
	for i := 1; i <= 3; i++ {
		if err := s.Put(nil, "k", mmvalue.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := s.Get(nil, "k"); !mmvalue.Equal(v, mmvalue.Int(3)) {
		t.Errorf("overwrite failed, got %s", v)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t)
	s.Put(nil, "k", mmvalue.String("x"))
	if err := s.Delete(nil, "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(nil, "k"); ok {
		t.Error("deleted key still visible")
	}
	if err := s.Delete(nil, "nope"); err != nil {
		t.Errorf("deleting missing key should be a no-op, got %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestTransactionalAtomicity(t *testing.T) {
	s := newTestStore(t)
	mgr := s.Manager()
	tx := mgr.Begin()
	s.Put(tx, "a", mmvalue.Int(1))
	s.Put(tx, "b", mmvalue.Int(2))
	// Uncommitted writes invisible outside the transaction.
	if _, ok := s.Get(nil, "a"); ok {
		t.Error("uncommitted write visible to outside reader")
	}
	// Visible inside.
	if v, ok := s.Get(tx, "a"); !ok || !mmvalue.Equal(v, mmvalue.Int(1)) {
		t.Error("transaction should see its own writes")
	}
	tx.Abort()
	if _, ok := s.Get(nil, "a"); ok {
		t.Error("aborted write persisted")
	}

	tx2 := mgr.Begin()
	s.Put(tx2, "a", mmvalue.Int(10))
	s.Put(tx2, "b", mmvalue.Int(20))
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	va, _ := s.Get(nil, "a")
	vb, _ := s.Get(nil, "b")
	if !mmvalue.Equal(va, mmvalue.Int(10)) || !mmvalue.Equal(vb, mmvalue.Int(20)) {
		t.Error("committed writes lost")
	}
}

func TestSnapshotIsolationOnScan(t *testing.T) {
	s := newTestStore(t)
	mgr := s.Manager()
	for i := 0; i < 5; i++ {
		s.Put(nil, fmt.Sprintf("k%d", i), mmvalue.Int(int64(i)))
	}
	reader := mgr.Begin()
	// Concurrent writer adds and deletes after the reader began.
	s.Put(nil, "k9", mmvalue.Int(9))
	s.Delete(nil, "k0")

	var seen []string
	s.Scan(reader, "", "", func(k string, _ mmvalue.Value) bool {
		seen = append(seen, k)
		return true
	})
	want := []string{"k0", "k1", "k2", "k3", "k4"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("snapshot scan = %v, want %v", seen, want)
	}
	reader.Abort()

	// A fresh reader sees the new state.
	var now []string
	s.Scan(nil, "", "", func(k string, _ mmvalue.Value) bool {
		now = append(now, k)
		return true
	})
	want = []string{"k1", "k2", "k3", "k4", "k9"}
	if fmt.Sprint(now) != fmt.Sprint(want) {
		t.Errorf("latest scan = %v, want %v", now, want)
	}
}

func TestScanRangeAndEarlyStop(t *testing.T) {
	s := newTestStore(t)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		s.Put(nil, k, mmvalue.String(k))
	}
	var got []string
	s.Scan(nil, "b", "e", func(k string, _ mmvalue.Value) bool {
		got = append(got, k)
		return true
	})
	if fmt.Sprint(got) != "[b c d]" {
		t.Errorf("range scan = %v", got)
	}
	got = nil
	s.Scan(nil, "", "", func(k string, _ mmvalue.Value) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Errorf("early stop scanned %d", len(got))
	}
}

func TestScanPrefix(t *testing.T) {
	s := newTestStore(t)
	keys := []string{"feedback/1/a", "feedback/1/b", "feedback/2/a", "other/x"}
	for _, k := range keys {
		s.Put(nil, k, mmvalue.Int(1))
	}
	var got []string
	s.ScanPrefix(nil, "feedback/1/", func(k string, _ mmvalue.Value) bool {
		got = append(got, k)
		return true
	})
	if fmt.Sprint(got) != "[feedback/1/a feedback/1/b]" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a", "b"},
		{"az", "a{"},
		{"", ""},
		{"\xff", ""},
		{"a\xff", "b"},
	}
	for _, c := range cases {
		if got := ordmap.PrefixEnd(c.in); got != c.want {
			t.Errorf("prefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCompact(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 10; i++ {
		s.Put(nil, "hot", mmvalue.Int(int64(i)))
	}
	s.Put(nil, "dead", mmvalue.Int(1))
	s.Delete(nil, "dead")
	// Published()+1, not Oracle().Current()+1: the oracle runs ahead of
	// the watermark while commits are stamping, and a horizon past the
	// watermark can drop versions still visible to published snapshots.
	horizon := s.Manager().Published() + 1
	dropped := s.Compact(horizon)
	if dropped < 9 {
		t.Errorf("Compact dropped %d versions, want >= 9", dropped)
	}
	if v, ok := s.Get(nil, "hot"); !ok || !mmvalue.Equal(v, mmvalue.Int(9)) {
		t.Error("latest version must survive compaction")
	}
	if n := s.recs.Len(); n != 1 {
		t.Errorf("tombstoned key should be physically removed, %d physical keys", n)
	}
}

func TestConcurrentWritersDistinctKeys(t *testing.T) {
	s := newTestStore(t)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(nil, key, mmvalue.Int(int64(i))); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != workers*per {
		t.Fatalf("Len = %d, want %d", got, workers*per)
	}
}

func TestConcurrentReadModifyWriteSameKey(t *testing.T) {
	s := newTestStore(t)
	mgr := s.Manager()
	s.Put(nil, "ctr", mmvalue.Int(0))
	const workers, per = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := mgr.RunWith(50, func(tx *txn.Tx) error {
					// Lock first so the read is serialized (2PL).
					if err := tx.LockExclusive("kv/ctr"); err != nil {
						return err
					}
					cur, _ := s.Get(nil, "ctr") // latest committed under lock
					return s.Put(tx, "ctr", mmvalue.Int(cur.MustInt()+1))
				})
				if err != nil {
					t.Errorf("rmw: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := s.Get(nil, "ctr")
	if v.MustInt() != workers*per {
		t.Fatalf("counter = %d, want %d (lost updates)", v.MustInt(), workers*per)
	}
}

// Property: the skiplist scan order always matches a sorted reference map.
func TestPropSkiplistMatchesSortedMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore("p", txn.NewManager())
		ref := map[string]int64{}
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("key%03d", r.Intn(60))
			switch r.Intn(3) {
			case 0, 1:
				v := int64(r.Intn(1000))
				if s.Put(nil, k, mmvalue.Int(v)) != nil {
					return false
				}
				ref[k] = v
			case 2:
				if s.Delete(nil, k) != nil {
					return false
				}
				delete(ref, k)
			}
		}
		var wantKeys []string
		for k := range ref {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		var gotKeys []string
		okVals := true
		s.Scan(nil, "", "", func(k string, v mmvalue.Value) bool {
			gotKeys = append(gotKeys, k)
			if v.MustInt() != ref[k] {
				okVals = false
			}
			return true
		})
		return okVals && fmt.Sprint(gotKeys) == fmt.Sprint(wantKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	s := NewStore("kv", txn.NewManager())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(nil, fmt.Sprintf("k%08d", i), mmvalue.Int(int64(i)))
	}
}

func BenchmarkGet(b *testing.B) {
	s := NewStore("kv", txn.NewManager())
	const n = 10000
	for i := 0; i < n; i++ {
		s.Put(nil, fmt.Sprintf("k%08d", i), mmvalue.Int(int64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(nil, fmt.Sprintf("k%08d", i%n))
	}
}
