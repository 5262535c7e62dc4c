package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBankTransferInvariant is the classic serializability smoke test:
// concurrent transfers between accounts must preserve the total
// balance, with snapshot readers observing a constant sum at every
// instant.
func TestBankTransferInvariant(t *testing.T) {
	m := NewManager()
	const accounts = 8
	const initial = 1000
	chains := make([]*Chain[int], accounts)
	for i := range chains {
		chains[i] = &Chain[int]{}
		tx := m.Begin()
		if err := tx.LockExclusive(fmt.Sprintf("acct/%d", i)); err != nil {
			t.Fatal(err)
		}
		chains[i].Write(tx.ID(), initial)
		tx.OnCommit(func(ts TS) { chains[i].CommitStamp(tx.ID(), ts) })
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	readBalance := func(tx *Tx, i int) int {
		v, _ := chains[i].Read(tx.BeginTS(), tx.ID())
		return v
	}
	writeBalance := func(tx *Tx, i, v int) {
		chains[i].Write(tx.ID(), v)
		ci := chains[i]
		id := tx.ID()
		tx.OnUndo(func() { ci.Rollback(id) })
		tx.OnCommit(func(ts TS) { ci.CommitStamp(id, ts) })
	}

	var wg sync.WaitGroup
	var transfers atomic.Int64
	stop := make(chan struct{})
	// Writers: move random amounts between random account pairs.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w + 1)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng>>33) % n
			}
			for i := 0; i < 150; i++ {
				a, b := next(accounts), next(accounts)
				if a == b {
					continue
				}
				// Lock in canonical order to avoid deadlock storms;
				// the invariant is what we test here.
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				err := m.RunWith(20, func(tx *Tx) error {
					if err := tx.LockExclusive(fmt.Sprintf("acct/%d", lo)); err != nil {
						return err
					}
					if err := tx.LockExclusive(fmt.Sprintf("acct/%d", hi)); err != nil {
						return err
					}
					// Read latest under locks.
					av, _ := chains[a].ReadLatest()
					bv, _ := chains[b].ReadLatest()
					amt := next(50)
					writeBalance(tx, a, av-amt)
					writeBalance(tx, b, bv+amt)
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				transfers.Add(1)
			}
		}(w)
	}
	// Snapshot readers: the sum must be constant at every snapshot.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Begin()
				sum := 0
				for i := 0; i < accounts; i++ {
					sum += readBalance(tx, i)
				}
				tx.Abort()
				if sum != accounts*initial {
					t.Errorf("snapshot sum = %d, want %d", sum, accounts*initial)
					return
				}
				time.Sleep(time.Microsecond)
			}
		}()
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for transfers.Load() < 4*100 {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
	close(stop)
	wg.Wait()
	// Final sum intact.
	sum := 0
	for i := 0; i < accounts; i++ {
		v, _ := chains[i].ReadLatest()
		sum += v
	}
	if sum != accounts*initial {
		t.Fatalf("final sum = %d, want %d", sum, accounts*initial)
	}
}

// TestManyWaitersFairDrain floods one resource with waiters and checks
// they all eventually acquire it.
func TestManyWaitersFairDrain(t *testing.T) {
	m := NewManager()
	const waiters = 32
	var acquired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := m.RunWith(5, func(tx *Tx) error {
				if err := tx.LockExclusive("hot"); err != nil {
					return err
				}
				acquired.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
		}()
	}
	wg.Wait()
	if acquired.Load() != waiters {
		t.Fatalf("acquired = %d, want %d", acquired.Load(), waiters)
	}
}

// TestThreeWayDeadlock builds a 3-cycle in the wait-for graph and
// verifies detection breaks it.
func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	txs := []*Tx{m.Begin(), m.Begin(), m.Begin()}
	res := []string{"r0", "r1", "r2"}
	for i, tx := range txs {
		if err := tx.LockExclusive(res[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	for i, tx := range txs {
		go func(i int, tx *Tx) {
			err := tx.LockExclusive(res[(i+1)%3])
			// Release immediately so the remaining waiters can drain;
			// deadlock victims were already aborted by LockExclusive.
			tx.Abort()
			errs <- err
		}(i, tx)
	}
	deadlocks := 0
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err == ErrDeadlock {
				deadlocks++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("3-way deadlock not resolved")
		}
	}
	if deadlocks == 0 {
		t.Fatal("no victim chosen in 3-cycle")
	}
}

// TestChainGCUnderReaders verifies that a write trims only what no
// open snapshot reads: a reader pinned at v1 keeps v1 across later
// writes, and once it ends the next write leaves the newest committed
// version and its own.
func TestChainGCUnderReaders(t *testing.T) {
	m := NewManager()
	var c Chain[int]
	commit := func(v int) {
		tx := m.Begin()
		if err := tx.LockExclusive("k"); err != nil {
			t.Fatal(err)
		}
		c.Stage(tx, v, func(*Chain[int], uint64) {})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	reader := m.Begin() // snapshot pinned at v1
	commit(2)
	commit(3)
	commit(4)
	if v, ok := c.Read(reader.BeginTS(), reader.ID()); !ok || v != 1 {
		t.Fatalf("reader lost its version to a trim: (%d, %v)", v, ok)
	}
	if n := c.Len(); n != 4 {
		t.Errorf("len under the reader = %d, want 4", n)
	}
	reader.Abort()
	commit(5)
	if n := c.Len(); n != 2 {
		t.Errorf("len after the reader ended = %d, want 2", n)
	}
	if v, ok := c.ReadLatest(); !ok || v != 5 {
		t.Errorf("latest = (%d, %v), want 5", v, ok)
	}
}
