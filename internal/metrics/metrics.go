// Package metrics provides the measurement primitives of the UDBench
// harness: thread-safe latency histograms with percentile estimation,
// throughput counters, and plain-text/CSV result tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records durations and tracks exact min/max/sum. Up to
// smallMax observations are kept verbatim (percentiles are then exact
// and the footprint is one cache line's worth of samples); beyond that
// they spill into fixed-size logarithmic buckets (~4% relative error).
// The zero Histogram is ready to use. It is safe for concurrent use,
// but the intended concurrent-load pattern is one Histogram per worker
// merged after the fact (see Merge): recording then never contends on
// a shared lock, and the remaining uncontended mutex costs a few
// nanoseconds.
type Histogram struct {
	mu      sync.Mutex
	small   []time.Duration    // exact samples until spill
	buckets *[numBuckets]int64 // allocated on spill
	lo, hi  int                // inclusive touched-bucket range
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// smallMax is the spill threshold: short runs (per-op histograms of a
// quick mix, per-worker recorders) never pay for the bucket array at
// all.
const smallMax = 64

// growth is the bucket growth factor; bucket(d) = floor(log(d)/log(growth)).
const growth = 1.04

// numBuckets bounds the bucket array: growth^768 ns ≈ 3.5 hours, far
// beyond any operation latency the harness measures. Larger durations
// clamp into the last bucket (percentiles also clamp to the exact max).
const numBuckets = 768

// invLogGrowth converts ln(duration) to a bucket index with one
// multiply instead of a divide per observation.
var invLogGrowth = 1 / math.Log(growth)

// bucketMid memoizes the midpoint duration of every bucket, replacing
// the math.Pow call per percentile probe with a table lookup.
var bucketMid = func() (mid [numBuckets]time.Duration) {
	for b := range mid {
		mid[b] = time.Duration(math.Pow(growth, float64(b)+0.5))
	}
	return mid
}()

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := int(math.Log(float64(d)) * invLogGrowth)
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

func bucketValue(b int) time.Duration { return bucketMid[b] }

// addBucketLocked counts n observations into bucket b; callers hold
// h.mu and have spilled.
func (h *Histogram) addBucketLocked(b int, n int64) {
	h.buckets[b] += n
	if b < h.lo {
		h.lo = b
	}
	if b > h.hi {
		h.hi = b
	}
}

// spillLocked moves the exact samples into the bucket array; callers
// hold h.mu.
func (h *Histogram) spillLocked() {
	h.buckets = new([numBuckets]int64)
	h.lo, h.hi = numBuckets-1, 0
	for _, d := range h.small {
		h.addBucketLocked(bucketOf(d), 1)
	}
	h.small = nil
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if h.count == 1 || d > h.max {
		h.max = d
	}
	if h.buckets == nil {
		if h.small == nil {
			h.small = make([]time.Duration, 0, smallMax)
		}
		h.small = append(h.small, d)
		if len(h.small) >= smallMax {
			h.spillLocked()
		}
		return
	}
	h.addBucketLocked(bucketOf(d), 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observed duration.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile estimates the p-th percentile (0 < p <= 100) from the
// bucket midpoints, clamped to the exact min/max.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if h.buckets == nil {
		// Still in exact mode: the percentile is the target-th
		// smallest sample. Sorting in place is fine (sample order
		// carries no meaning) and n is at most smallMax.
		sort.Slice(h.small, func(i, j int) bool { return h.small[i] < h.small[j] })
		if target > int64(len(h.small)) {
			target = int64(len(h.small))
		}
		return h.small[target-1]
	}
	var cum int64
	for b := h.lo; b <= h.hi; b++ {
		n := h.buckets[b]
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			if b == numBuckets-1 {
				// Overflow bucket: its midpoint is meaningless for
				// clamped observations, so report the exact max.
				return h.max
			}
			v := bucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Snapshot returns a printable one-line summary.
func (h *Histogram) Snapshot() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Percentile(50).Round(time.Microsecond),
		h.Percentile(95).Round(time.Microsecond),
		h.Percentile(99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// Merge folds other into h. It is the aggregation half of the
// per-worker recording pattern: workers observe into private
// histograms, then the driver merges them once the run is over.
func (h *Histogram) Merge(other *Histogram) {
	// Copy other's state out first instead of holding both locks
	// (concurrent A.Merge(B) + B.Merge(A) must not deadlock).
	other.mu.Lock()
	if other.count == 0 {
		other.mu.Unlock()
		return
	}
	var osmall []time.Duration
	var ob []int64
	var olo int
	if other.buckets == nil {
		osmall = append([]time.Duration(nil), other.small...)
	} else {
		olo = other.lo
		ob = make([]int64, other.hi-other.lo+1)
		copy(ob, other.buckets[other.lo:other.hi+1])
	}
	ocount, osum, omin, omax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case osmall != nil && h.buckets == nil:
		// Both exact: stay exact if the union fits, else spill.
		h.small = append(h.small, osmall...)
		if len(h.small) >= smallMax {
			h.spillLocked()
		}
	case osmall != nil:
		for _, d := range osmall {
			h.addBucketLocked(bucketOf(d), 1)
		}
	default:
		if h.buckets == nil {
			h.spillLocked()
		}
		for i, n := range ob {
			if n != 0 {
				h.addBucketLocked(olo+i, n)
			}
		}
	}
	if h.count == 0 || omin < h.min {
		h.min = omin
	}
	if h.count == 0 || omax > h.max {
		h.max = omax
	}
	h.count += ocount
	h.sum += osum
}

// DualHistogram couples the two latencies of one coordinated-omission-
// free measurement: Service is time from operation start to completion
// (what the server did), Intended is time from the operation's
// *scheduled* arrival to completion (what a client that issued requests
// on schedule would have experienced, i.e. service time plus any queue
// delay accrued while earlier operations overran their slots). Under an
// open-loop driver at saturation the two diverge sharply — that
// divergence is the coordinated-omission signal. The zero DualHistogram
// is ready to use; like Histogram it is intended to be private to one
// worker and merged after the run.
type DualHistogram struct {
	Service  Histogram
	Intended Histogram
}

// Observe records one operation's service and intended latency.
func (d *DualHistogram) Observe(service, intended time.Duration) {
	d.Service.Observe(service)
	d.Intended.Observe(intended)
}

// Merge folds other's observations into d.
func (d *DualHistogram) Merge(other *DualHistogram) {
	d.Service.Merge(&other.Service)
	d.Intended.Merge(&other.Intended)
}

// Rate pairs the offered (requested) arrival rate of an open-loop run
// with the rate the run actually sustained. Offered 0 means the run was
// not rate-limited (closed loop).
type Rate struct {
	Offered  float64 // requested arrivals per second (0 = closed loop)
	Achieved float64 // completed operations per second
}

// Achievement returns Achieved/Offered — 1.0 when the driver kept up
// with the schedule, below 1.0 when the system under test (or the
// driver machine) could not sustain the offered rate. A closed-loop
// run (Offered 0) reports 1.
func (r Rate) Achievement() float64 {
	if r.Offered <= 0 {
		return 1
	}
	return r.Achieved / r.Offered
}

// Table is a simple column-aligned result table with CSV export; the
// harness renders every experiment through it.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		// Ratios with a zero denominator (an engine that completed no
		// ops, a zero-duration cell) reach the table as NaN/Inf; render
		// the not-measured marker instead of leaking "NaN" into tables
		// and CSV files consumers parse.
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns a copy of the rendered data rows (machine-readable
// export paths marshal these alongside Title and Headers).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			// Pad only within known column widths: a row handed more
			// cells than there are headers still renders (unpadded at
			// the tail) instead of indexing past widths.
			if i < len(cells)-1 && i < len(widths) && widths[i] > len(cell) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeCSVRow(t.Headers)
	for _, row := range t.rows {
		writeCSVRow(row)
	}
	return sb.String()
}

// Throughput converts an operation count over a wall-clock duration to
// operations per second.
func Throughput(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
