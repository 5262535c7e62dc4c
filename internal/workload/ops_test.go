package workload

import (
	"fmt"
	"testing"
)

// TestFeedbackPrefixMatchesSprintf pins feedbackPrefix to the
// fmt.Sprintf form the loader's keys use, at the edges of its padding.
func TestFeedbackPrefixMatchesSprintf(t *testing.T) {
	for _, cid := range []int{0, 7, 999_999, 1_000_000} {
		if got, want := feedbackPrefix(cid), fmt.Sprintf("feedback/%06d/", cid); got != want {
			t.Errorf("feedbackPrefix(%d) = %q, want %q", cid, got, want)
		}
	}
}
