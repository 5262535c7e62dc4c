package udbms

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"udbench/internal/mmvalue"
)

// rankKinds are the group-key columns the rank test draws: one typed
// vector each for int, float and string, and columns of values.
var rankKinds = []string{"int", "float", "string", "bool", "array", "mixed"}

// rankValue draws a group key of kind; about one in eight is null. The
// floats include ±0, ±Inf and two NaNs with different bits, which Hash
// tells apart although they compare equal; "mixed" adds 1 and 1.0, and
// 2^53 as a float next to 2^53+1 as an int, another pair that Hash
// separates and Compare calls equal.
func rankValue(rng *rand.Rand, kind string) mmvalue.Value {
	if rng.Intn(8) == 0 {
		return mmvalue.Null
	}
	if kind == "mixed" {
		switch rng.Intn(8) {
		case 0:
			return mmvalue.Int(1)
		case 1:
			return mmvalue.Float(1)
		case 2:
			return mmvalue.Float(1 << 53)
		case 3:
			return mmvalue.Int(1<<53 + 1)
		}
		kind = rankKinds[rng.Intn(len(rankKinds)-1)]
	}
	switch kind {
	case "int":
		return mmvalue.Int(int64(rng.Intn(300) - 150))
	case "float":
		special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000000)}
		if i := rng.Intn(3 * len(special)); i < len(special) {
			return mmvalue.Float(special[i])
		}
		return mmvalue.Float(float64(rng.Intn(300)-150) / 4)
	case "string":
		return mmvalue.String(fmt.Sprint("k", rng.Intn(300)))
	case "bool":
		return mmvalue.Bool(rng.Intn(2) == 0)
	}
	elems := make([]mmvalue.Value, rng.Intn(3))
	for i := range elems {
		elems[i] = mmvalue.Int(int64(rng.Intn(3)))
	}
	return mmvalue.Array(elems...)
}

// rankColumn is a projection of n rows drawn from kind, and its dict.
func rankColumn(rng *rand.Rand, kind string, n int) (*projection, *dict) {
	p := newProjection(1)
	for r := 0; r < n; r++ {
		p.cols[0].add(r, rankValue(rng, kind))
	}
	p.n = n
	return p, p.dict(0)
}

// signOf is the sign of c: -1, 0 or 1.
func signOf(c int) int { return cmp.Compare(c, 0) }

// TestDictRanksMatchCompare checks, for random group-key columns of
// every kind, that dict.compare and column.compare agree with
// mmvalue.Compare, that ranked lists every code once in mmvalue.Compare
// order with equal codes in code order, and that it reports ties exactly
// when two codes compare equal.
func TestDictRanksMatchCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range rankKinds {
		for trial := 0; trial < 6; trial++ {
			p, d := rankColumn(rng, kind, 50+rng.Intn(400))
			col := &p.cols[0]
			for i := 0; i < 2000; i++ {
				a, b := rng.Intn(p.n+1)-1, rng.Intn(p.n+1)-1 // -1 reads null
				if got, want := signOf(col.compare(a, b)), mmvalue.Compare(col.value(a), col.value(b)); got != want {
					t.Fatalf("%s: column.compare(%v, %v) = %d, want %d", kind, col.value(a), col.value(b), got, want)
				}
			}
			byRank, ties := d.ranked()
			if len(byRank) != len(d.first) {
				t.Fatalf("%s: %d ranked codes, want %d", kind, len(byRank), len(d.first))
			}
			seen := make([]bool, len(d.first))
			wantTies := false
			for i, c := range byRank {
				if seen[c] {
					t.Fatalf("%s: code %d ranked twice", kind, c)
				}
				seen[c] = true
				if i == 0 {
					continue
				}
				prev := byRank[i-1]
				switch mmvalue.Compare(d.val(int(prev)), d.val(int(c))) {
				case 1:
					t.Fatalf("%s: %v ranked before %v", kind, d.val(int(prev)), d.val(int(c)))
				case 0:
					if prev > c {
						t.Fatalf("%s: equal codes %d, %d out of code order", kind, prev, c)
					}
					wantTies = true
				}
			}
			if ties != wantTies {
				t.Fatalf("%s: ties = %v, want %v", kind, ties, wantTies)
			}
			for a := range d.first {
				for b := range d.first {
					if got, want := signOf(d.compare(int32(a), int32(b))), mmvalue.Compare(d.val(a), d.val(b)); got != want {
						t.Fatalf("%s: dict.compare(%v, %v) = %d, want %d", kind, d.val(a), d.val(b), got, want)
					}
				}
			}
		}
	}
	// Ties are reachable: two NaNs of different bits, and 2^53 as a float
	// and 2^53+1 as an int, are two codes each that compare equal.
	for _, pair := range [][2]mmvalue.Value{
		{mmvalue.Float(math.NaN()), mmvalue.Float(math.Float64frombits(0x7ff8000000000000))},
		{mmvalue.Float(1 << 53), mmvalue.Int(1<<53 + 1)},
	} {
		p := newProjection(1)
		p.cols[0].add(0, pair[0])
		p.cols[0].add(1, pair[1])
		p.n = 2
		if d := p.dict(0); len(d.first) != 3 {
			t.Fatalf("%v, %v: %d codes, want 3", pair[0], pair[1], len(d.first))
		} else if _, ties := d.ranked(); !ties {
			t.Fatalf("%v, %v: no ties", pair[0], pair[1])
		}
	}
}

// refOrder is the emission order of the boxed sort GroupBy used before
// ranks: the groups (in order of first appearance) stably by key, or
// with a top-N, stably by aggregate k's value in the sort's direction,
// ties by key, the first n kept.
func refOrder(g *groupSink, groups []int32) []int32 {
	out := slices.Clone(groups)
	key := func(c int32) mmvalue.Value { return g.keys.val(int(c)) }
	if top := g.st.top; top != nil && g.st.topN < len(groups) {
		slices.SortStableFunc(out, func(a, b int32) int {
			c := mmvalue.Compare(g.value(a, g.st.topAgg), g.value(b, g.st.topAgg))
			if top.desc {
				c = -c
			}
			if c == 0 {
				c = mmvalue.Compare(key(a), key(b))
			}
			return c
		})
		return out[:g.st.topN]
	}
	slices.SortStableFunc(out, func(a, b int32) int { return mmvalue.Compare(key(a), key(b)) })
	return out
}

// TestGroupOrderMatchesBoxedSort checks groupSink.order against the
// boxed sort it replaced, on random subsets of the codes of random
// key columns in random order of first appearance: few groups (sorted
// by key) and many (read off the ranked codes), keys that tie, and a
// top-N by Count, Sum, Avg and Max over values that tie, NaN and
// null included, ascending and descending.
func TestGroupOrderMatchesBoxedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	walked, sorted := 0, 0
	for _, kind := range rankKinds {
		for trial := 0; trial < 40; trial++ {
			_, d := rankColumn(rng, kind, 100+rng.Intn(600))
			codes := len(d.first)
			size := 1 + rng.Intn(max(codes/40, 1)) // fewer than one code in 32: sorted
			if trial%2 == 1 {
				size = codes/2 + rng.Intn(codes/2+1) // at least half: walked unless keys tie
			}
			groups := make([]int32, codes)
			for c := range groups {
				groups[c] = int32(c)
			}
			rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
			groups = groups[:size]
			fs := &foldScratch{count: make([]int64, codes)}
			for _, c := range groups {
				fs.count[c] = 1 + int64(rng.Intn(3))
			}
			g := &groupSink{st: &groupStage{}, keys: d, foldScratch: fs}
			g.groups = slices.Clone(groups)
			want := refOrder(g, groups)
			if got := g.order(); !slices.Equal(got, want) {
				t.Fatalf("%s, %d of %d codes: order = %v, want %v", kind, size, codes, got, want)
			}
			if _, ties := d.ranked(); 32*size >= codes && !ties {
				walked++
			} else {
				sorted++
			}
			for _, agg := range []aggKind{aggCount, aggSum, aggAvg, aggMax} {
				for _, desc := range []bool{false, true} {
					g := topSink(rng, d, fs, agg, desc, rng.Intn(size+1))
					g.groups = slices.Clone(groups)
					want := refOrder(g, groups)
					if got := g.order(); !slices.Equal(got, want) {
						t.Fatalf("%s, agg %d desc %v, top %d of %d: order = %v, want %v", kind, agg, desc, g.st.topN, size, got, want)
					}
				}
			}
		}
	}
	if walked == 0 || sorted == 0 {
		t.Fatalf("branches: %d walked, %d sorted; want both", walked, sorted)
	}
}

// topSink is a groupSink over keys d and counts fs whose one aggregate,
// of kind agg, keeps the top n groups, with values drawn to tie often:
// sums of a few numbers, NaN among them, Avgs over no numbers (null),
// and Max winners from a mixed column, null winners included.
func topSink(rng *rand.Rand, d *dict, fs *foldScratch, agg aggKind, desc bool, n int) *groupSink {
	codes := len(d.first)
	a := aggCols{sum: make([]float64, codes), n: make([]int64, codes), best: make([]int32, codes), col: &column{}}
	for c := range a.sum {
		if a.n[c] = int64(rng.Intn(3)); a.n[c] > 0 { // over no numbers the sum stays 0, as the fold leaves it
			a.sum[c] = []float64{0, 1, 2, math.NaN(), math.Copysign(0, -1)}[rng.Intn(5)]
		}
	}
	winners := 60
	for r := 0; r < winners; r++ {
		a.col.add(r, rankValue(rng, "mixed"))
	}
	for c := range a.best {
		a.best[c] = int32(rng.Intn(winners + 1)) // 0: no winner, null
	}
	fs.aggs = []aggCols{a}
	st := &groupStage{aggs: []Agg{{kind: agg}}, top: &sortStage{desc: desc}, topN: n}
	return &groupSink{st: st, keys: d, foldScratch: fs}
}
