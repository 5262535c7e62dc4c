package workload

import (
	"sync"
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/udbms"
)

// TestConcurrentFirstPassesBuildOnce runs 1, 2 and 4 concurrent Q1–Q13
// passes over a freshly loaded store: however many readers miss the
// join cache at once, each projection key is built once, so the builds
// equal those of one pass alone, and a second pass builds nothing.
func TestConcurrentFirstPassesBuildOnce(t *testing.T) {
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.5, Seed: 1234})
	info := InfoOf(ds)
	var keys uint64
	for _, clients := range []int{1, 2, 4} {
		db := udbms.Open()
		if err := ds.Load(db.Stores()); err != nil {
			t.Fatal(err)
		}
		e := NewUDBMSEngine(db)
		pass := func(seed uint64) {
			p := NewParamGen(info, seed, 0).Next()
			for _, q := range AllQueries {
				if _, err := e.RunQuery(q, p); err != nil {
					t.Error(q, err)
				}
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pass(uint64(c))
			}()
		}
		close(start)
		wg.Wait()
		builds := db.JoinStats().Builds
		t.Logf("%d clients: %d builds", clients, builds)
		if clients == 1 {
			keys = builds
		}
		if builds != keys || keys == 0 {
			t.Errorf("%d concurrent first passes: %d builds, want %d (one per projection key)", clients, builds, keys)
		}
		if pass(99); db.JoinStats().Builds != builds {
			t.Errorf("%d clients: a second pass built %d more", clients, db.JoinStats().Builds-builds)
		}
	}
}
