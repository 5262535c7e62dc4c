package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("zero histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.min != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.min, h.Max())
	}
	mean := h.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	p50 := h.Percentile(50)
	if p50 < 45*time.Millisecond || p50 > 56*time.Millisecond {
		t.Errorf("p50 = %v (4%% bucket error expected)", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 90*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", p99)
	}
	if s := h.Snapshot(); !strings.Contains(s, "n=100") {
		t.Errorf("Snapshot = %s", s)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Errorf("percentile %g (%v) below %v", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(10 * time.Millisecond)
	b.Observe(20 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.min != time.Millisecond || a.Max() != 20*time.Millisecond {
		t.Errorf("merged min/max = %v/%v", a.min, a.Max())
	}
	// Merging into an empty histogram.
	var c Histogram
	c.Merge(&a)
	if c.Count() != 3 || c.min != time.Millisecond {
		t.Error("merge into empty failed")
	}
}

func TestHistogramMergeDisjointRanges(t *testing.T) {
	// a holds a low range, b a strictly higher one: the merged
	// histogram must carry a's min, b's max, and the exact sum/count.
	var a, b Histogram
	var wantSum time.Duration
	for i := 1; i <= 50; i++ {
		d := time.Duration(i) * time.Microsecond
		a.Observe(d)
		wantSum += d
	}
	for i := 1; i <= 30; i++ {
		d := time.Duration(i) * time.Second
		b.Observe(d)
		wantSum += d
	}
	a.Merge(&b)
	if a.Count() != 80 {
		t.Errorf("count = %d, want 80", a.Count())
	}
	if a.min != time.Microsecond {
		t.Errorf("min = %v, want 1µs", a.min)
	}
	if a.Max() != 30*time.Second {
		t.Errorf("max = %v, want 30s", a.Max())
	}
	if a.sum != wantSum {
		t.Errorf("sum = %v, want %v", a.sum, wantSum)
	}
	if mean := a.Mean(); mean != wantSum/80 {
		t.Errorf("mean = %v, want %v", mean, wantSum/80)
	}
	// The p99 must land in b's range.
	if p := a.Percentile(99); p < time.Second {
		t.Errorf("p99 = %v, expected in the seconds range", p)
	}
}

func TestHistogramMergeOverlappingRanges(t *testing.T) {
	// Two histograms over the same range must merge into exactly the
	// histogram that would result from observing everything in one.
	var a, b, whole Histogram
	for i := 1; i <= 200; i++ {
		d := time.Duration(i) * time.Millisecond
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.sum != whole.sum || a.min != whole.min || a.max != whole.max {
		t.Errorf("merged (n=%d sum=%v min=%v max=%v) != whole (n=%d sum=%v min=%v max=%v)",
			a.Count(), a.sum, a.min, a.max, whole.Count(), whole.sum, whole.min, whole.max)
	}
	for _, p := range []float64{1, 25, 50, 75, 99} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Errorf("p%g: merged %v != whole %v", p, a.Percentile(p), whole.Percentile(p))
		}
	}
	// Merging an empty histogram changes nothing (including min).
	var empty Histogram
	before := a.min
	a.Merge(&empty)
	if a.Count() != whole.Count() || a.min != before {
		t.Error("merging an empty histogram changed state")
	}
}

func TestBucketValueMemoized(t *testing.T) {
	// The memoized midpoints must match the original math.Pow formula.
	for _, b := range []int{0, 1, 100, 500, numBuckets - 1} {
		want := time.Duration(math.Pow(growth, float64(b)+0.5))
		if got := bucketValue(b); got != want {
			t.Errorf("bucketValue(%d) = %v, want %v", b, got, want)
		}
	}
	// Durations beyond the last bucket clamp instead of panicking.
	var h Histogram
	h.Observe(100 * time.Hour)
	h.Observe(time.Millisecond)
	if h.Max() != 100*time.Hour {
		t.Errorf("max = %v", h.Max())
	}
	if p := h.Percentile(100); p != 100*time.Hour {
		t.Errorf("p100 = %v, want exact max", p)
	}
}

func TestZeroAndNegativeDurations(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clamped to bucket 0
	if h.Count() != 2 {
		t.Error("observations lost")
	}
	_ = h.Percentile(50)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "ops/s", "p99")
	tb.AddRow("udbms", 1234.5678, 42*time.Millisecond)
	tb.AddRow("federation", 99.0, 180*time.Millisecond)
	s := tb.String()
	for _, frag := range []string{"== Demo ==", "name", "udbms", "1234.6", "99", "42ms"} {
		if !strings.Contains(s, frag) {
			t.Errorf("table output missing %q:\n%s", frag, s)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	// Title + header + separator + 2 data rows.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"z`)
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\n1,2.500\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestThroughput(t *testing.T) {
	if v := Throughput(100, time.Second); v != 100 {
		t.Errorf("Throughput = %g", v)
	}
	if v := Throughput(100, 0); v != 0 {
		t.Errorf("zero-elapsed throughput = %g", v)
	}
	if v := Throughput(50, 500*time.Millisecond); v != 100 {
		t.Errorf("Throughput = %g", v)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:            "3",
		3.14159:      "3.142",
		1234.56:      "1234.6",
		0.001:        "0.001",
		math.NaN():   "-",
		math.Inf(1):  "-",
		math.Inf(-1): "-",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%g) = %s, want %s", in, got, want)
		}
	}
}

// TestTableNonFiniteCells covers the zero-denominator-ratio path end to
// end: NaN/Inf values render as "-" in both the aligned and CSV
// outputs rather than as "NaN"/"+Inf" noise.
func TestTableNonFiniteCells(t *testing.T) {
	tb := NewTable("", "engine", "ratio", "rate")
	tb.AddRow("udbms", math.NaN(), math.Inf(1))
	s, csv := tb.String(), tb.CSV()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(s, bad) || strings.Contains(csv, bad) {
			t.Errorf("non-finite value leaked into output:\n%s\n%s", s, csv)
		}
	}
	if csv != "engine,ratio,rate\nudbms,-,-\n" {
		t.Errorf("CSV = %q", csv)
	}
}

// TestTableExtraCells pins the AddRow-wider-than-headers fix: String()
// used to index widths past len(Headers) and panic; now the extra
// cells render unpadded at the end of the row.
func TestTableExtraCells(t *testing.T) {
	tb := NewTable("Wide", "a", "b")
	tb.AddRow("x", "y", "extra", 7)
	tb.AddRow("longer-than-header", "y")
	s := tb.String()
	for _, frag := range []string{"extra", "7", "longer-than-header"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	// CSV keeps every cell too.
	if !strings.Contains(tb.CSV(), "x,y,extra,7") {
		t.Errorf("CSV dropped extra cells: %q", tb.CSV())
	}
}

func TestDualHistogram(t *testing.T) {
	var d DualHistogram
	d.Observe(time.Millisecond, 5*time.Millisecond)
	d.Observe(2*time.Millisecond, 2*time.Millisecond)
	if d.Service.Count() != 2 || d.Intended.Count() != 2 {
		t.Fatalf("counts = %d/%d, want 2/2", d.Service.Count(), d.Intended.Count())
	}
	if d.Service.Max() != 2*time.Millisecond || d.Intended.Max() != 5*time.Millisecond {
		t.Errorf("max = %v/%v", d.Service.Max(), d.Intended.Max())
	}
	var other DualHistogram
	other.Observe(3*time.Millisecond, 9*time.Millisecond)
	d.Merge(&other)
	if d.Service.Count() != 3 || d.Intended.Count() != 3 {
		t.Errorf("merged counts = %d/%d, want 3/3", d.Service.Count(), d.Intended.Count())
	}
	if d.Intended.Max() != 9*time.Millisecond {
		t.Errorf("merged intended max = %v, want 9ms", d.Intended.Max())
	}
}

func TestRateAchievement(t *testing.T) {
	cases := []struct {
		rate Rate
		want float64
	}{
		{Rate{Offered: 1000, Achieved: 500}, 0.5},
		{Rate{Offered: 1000, Achieved: 1000}, 1},
		{Rate{Offered: 0, Achieved: 12345}, 1}, // closed loop: no schedule to miss
	}
	for _, c := range cases {
		if got := c.rate.Achievement(); got != c.want {
			t.Errorf("Achievement(%+v) = %g, want %g", c.rate, got, c.want)
		}
	}
}
