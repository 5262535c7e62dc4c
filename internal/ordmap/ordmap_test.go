package ordmap

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestGetOrInsertAndGet(t *testing.T) {
	m := New[int](1)
	v, inserted := m.GetOrInsert("a", func() int { return 7 })
	if !inserted || v != 7 {
		t.Fatalf("first insert = (%d, %v)", v, inserted)
	}
	v, inserted = m.GetOrInsert("a", func() int { return 99 })
	if inserted || v != 7 {
		t.Fatalf("second insert should return existing, got (%d, %v)", v, inserted)
	}
	if got, ok := m.Get("a"); !ok || got != 7 {
		t.Fatalf("Get = (%d, %v)", got, ok)
	}
	if _, ok := m.Get("zzz"); ok {
		t.Error("missing key found")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestRemove(t *testing.T) {
	m := New[int](1)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		m.GetOrInsert(k, func() int { return i })
	}
	if !m.Remove("k05") || m.Remove("k05") {
		t.Fatal("Remove semantics wrong")
	}
	if m.Len() != 19 {
		t.Errorf("Len = %d", m.Len())
	}
	if _, ok := m.Get("k05"); ok {
		t.Error("removed key still present")
	}
	// Order preserved.
	var keys []string
	m.Ascend("", "", func(k string, _ int) bool { keys = append(keys, k); return true })
	if !sort.StringsAreSorted(keys) || len(keys) != 19 {
		t.Errorf("keys after remove = %v", keys)
	}
}

func TestAscendBoundsAndStop(t *testing.T) {
	m := New[string](1)
	for _, k := range []string{"a", "c", "e", "g"} {
		k := k
		m.GetOrInsert(k, func() string { return k })
	}
	var got []string
	m.Ascend("b", "f", func(k, _ string) bool { got = append(got, k); return true })
	if fmt.Sprint(got) != "[c e]" {
		t.Errorf("bounded ascend = %v", got)
	}
	got = nil
	m.Ascend("", "", func(k, _ string) bool { got = append(got, k); return false })
	if fmt.Sprint(got) != "[a]" {
		t.Errorf("early stop = %v", got)
	}
}

func TestConcurrentInsertsAndReads(t *testing.T) {
	m := New[int](42)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				m.GetOrInsert(k, func() int { return i })
				m.Get(k)
				m.Ascend(k, "", func(string, int) bool { return false })
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*per)
	}
}

func TestPropMatchesReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New[int](seed)
		ref := map[string]int{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("%03d", r.Intn(80))
			if r.Intn(4) == 0 {
				m.Remove(k)
				delete(ref, k)
			} else {
				val := r.Intn(100)
				if _, ok := ref[k]; !ok {
					ref[k] = val
				}
				m.GetOrInsert(k, func() int { return val })
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		var keys []string
		ok := true
		m.Ascend("", "", func(k string, v int) bool {
			keys = append(keys, k)
			if rv, present := ref[k]; !present || rv != v {
				ok = false
			}
			return true
		})
		return ok && sort.StringsAreSorted(keys) && len(keys) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", "abd"}, {"", ""}, {"\xff\xff", ""}, {"a\xff", "b"},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); got != c.want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestGetAgreesWithAscend checks the hash against the skip list: after
// random GetOrInsert/Remove runs, Get must answer every key of the key
// space as a reference map does, and Ascend must list exactly the keys
// Get finds. A second part runs readers beside a writer (meaningful
// under -race): a key the writer never removes must stay visible to Get
// and Ascend from the moment its insert returns.
func TestGetAgreesWithAscend(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New[int](seed)
		ref := map[string]int{}
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("%03d", r.Intn(100))
			if r.Intn(3) == 0 {
				_, had := ref[k]
				if m.Remove(k) != had {
					return false
				}
				delete(ref, k)
				continue
			}
			val := r.Intn(1000)
			got, inserted := m.GetOrInsert(k, func() int { return val })
			if old, had := ref[k]; had {
				if inserted || got != old {
					return false
				}
			} else {
				if !inserted || got != val {
					return false
				}
				ref[k] = val
			}
		}
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("%03d", i)
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				return false
			}
		}
		n := 0
		agree := true
		m.Ascend("", "", func(k string, v int) bool {
			n++
			if gv, ok := m.hash[k]; !ok || gv.val != v {
				agree = false
			}
			return true
		})
		return agree && n == len(ref) && m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	m := New[int](7)
	const keys = 500
	var inserted [keys]atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(keys)
				was := inserted[i].Load()
				k := fmt.Sprintf("k%04d", i)
				if v, ok := m.Get(k); was && (!ok || v != i) {
					t.Errorf("Get(%s) = (%d, %v) after its insert returned", k, v, ok)
					return
				}
				found := false
				m.Ascend(k, "", func(key string, v int) bool {
					found = key == k && v == i
					return false
				})
				if was && !found {
					t.Errorf("Ascend from %s missed it after its insert returned", k)
					return
				}
			}
		}(r)
	}
	for i := 0; i < keys; i++ {
		m.GetOrInsert(fmt.Sprintf("k%04d", i), func() int { return i })
		inserted[i].Store(true)
		// Churn a key the readers never ask for.
		m.GetOrInsert(fmt.Sprintf("x%04d", i), func() int { return -1 })
		m.Remove(fmt.Sprintf("x%04d", i))
	}
	close(stop)
	wg.Wait()
	if m.Len() != keys {
		t.Errorf("Len = %d, want %d", m.Len(), keys)
	}
}
