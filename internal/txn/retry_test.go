package txn

import (
	"fmt"
	"testing"
	"time"
)

// TestRetryBudgetAndBound pins the one retry policy: a call that is
// always a deadlock victim is attempted exactly retries+1 times, comes
// back with ErrDeadlock (wrapped errors count), and the backoff sleeps
// stay inside the documented retries*backoffCap bound.
func TestRetryBudgetAndBound(t *testing.T) {
	for _, retries := range []int{0, 3, 40} {
		attempts := 0
		start := time.Now()
		err := Retry(retries, func() error {
			attempts++
			return fmt.Errorf("attempt %d: %w", attempts, ErrDeadlock)
		})
		if attempts != retries+1 {
			t.Errorf("retries=%d: %d attempts, want %d", retries, attempts, retries+1)
		}
		if err == nil {
			t.Errorf("retries=%d: exhausted budget must return the deadlock", retries)
		}
		// Generous slack for timer granularity on a loaded box.
		if limit := time.Duration(retries)*backoffCap + time.Second; time.Since(start) > limit {
			t.Errorf("retries=%d: took %v, bound %v", retries, time.Since(start), limit)
		}
	}
}
