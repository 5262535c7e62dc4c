package udbms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"udbench/internal/mmvalue"
)

// columnOf is a projection whose one column holds vals and, when rowNo
// is set, a second column holding each row's number.
func columnOf(vals []mmvalue.Value, rowNo bool) *projection {
	p := newProjection(1)
	if rowNo {
		p = newProjection(2)
	}
	for r, v := range vals {
		p.cols[0].add(r, v)
		if rowNo {
			p.cols[1].add(r, mmvalue.Int(int64(r)))
		}
	}
	p.n = len(vals)
	return p
}

// boxedOf is columnOf(vals) with its values boxed, whatever their kinds:
// its dict takes the hashed route, the reference.
func boxedOf(vals []mmvalue.Value) *projection {
	p := columnOf(vals, false)
	col := &p.cols[0]
	boxed := make([]mmvalue.Value, p.n)
	for r := range boxed {
		boxed[r] = col.value(r)
	}
	col.vals, col.ints, col.floats, col.strs = boxed, nil, nil, nil
	return p
}

// TestDictCodesMatchHashed checks the typed dicts (an int or string
// vector coded through a Go map) against the hashed dict over the same
// values boxed: int and string columns that ascend strictly, by runs, by
// consecutive ints, with gaps, unsorted or with a null; ints mixed with
// floats; and boxed values, which are hashed themselves. For probes of
// every kind — ints, integral and fractional floats, the 2^53 pair, ±0,
// NaN, ±Inf, strings, null, a bool, an array, and absent values — code,
// keeps, matches.get and link must equal the reference's, and so must
// the codes, first rows and ranks.
func TestDictCodesMatchHashed(t *testing.T) {
	ints := func(xs ...int64) []mmvalue.Value {
		out := make([]mmvalue.Value, len(xs))
		for i, x := range xs {
			out[i] = mmvalue.Int(x)
		}
		return out
	}
	strs := func(xs ...string) []mmvalue.Value {
		out := make([]mmvalue.Value, len(xs))
		for i, x := range xs {
			out[i] = mmvalue.String(x)
		}
		return out
	}
	const big = int64(1) << 53
	rng := rand.New(rand.NewSource(1))
	shuffled := func(vals []mmvalue.Value) []mmvalue.Value {
		vals = slices.Clone(vals)
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return vals
	}
	gapped := ints(math.MinInt64, -7, -7, 0, 3, 3, big, big, big+1, math.MaxInt64)
	cases := []struct {
		name  string
		vals  []mmvalue.Value
		route string
	}{
		{"int strictly ascending, consecutive", ints(-3, -2, -1, 0, 1, 2, 3, 4, 5), "int"},
		{"int runs, consecutive", ints(5, 5, 6, 7, 7, 7, 8), "int"},
		{"int ascending with gaps and runs", gapped, "int"},
		{"int strictly ascending, gapped", ints(-9, 0, 2, 7, big, big+1), "int"},
		{"int unsorted", shuffled(append(gapped, ints(5, 6, 5, 1)...)), "int"},
		{"int ascending with a null", append(ints(1, 2, 3), mmvalue.Null, mmvalue.Int(4)), "int"},
		{"string strictly ascending", strs("", "a", "b", "c", "zz"), "string"},
		{"string runs", strs("a", "a", "b", "c", "c", "c", "d"), "string"},
		{"string unsorted", strs("c", "a", "b", "a", "", "c"), "string"},
		{"string with a null", []mmvalue.Value{mmvalue.String("a"), mmvalue.Null, mmvalue.String("b")}, "string"},
		{"int and float", []mmvalue.Value{mmvalue.Int(1), mmvalue.Float(2.5), mmvalue.Int(big + 1), mmvalue.Float(float64(big)), mmvalue.Int(1)}, "hash"},
		{"float", []mmvalue.Value{mmvalue.Float(1.5), mmvalue.Float(math.NaN()), mmvalue.Float(math.Copysign(0, -1)), mmvalue.Float(0), mmvalue.Float(2)}, "hash"},
		{"boxed values", []mmvalue.Value{mmvalue.Bool(true), mmvalue.String("a"), mmvalue.Int(1), mmvalue.Null, mmvalue.Array(mmvalue.Int(1)), mmvalue.ObjectOf("k", 1), mmvalue.String("a")}, "hash"},
	}
	probes := []mmvalue.Value{
		mmvalue.Null, mmvalue.Int(-3), mmvalue.Int(0), mmvalue.Int(1), mmvalue.Int(5), mmvalue.Int(7), mmvalue.Int(1000),
		mmvalue.Int(big), mmvalue.Int(big + 1), mmvalue.Int(math.MinInt64), mmvalue.Int(math.MaxInt64),
		mmvalue.Float(5), mmvalue.Float(7.5), mmvalue.Float(2.5), mmvalue.Float(float64(big)), mmvalue.Float(float64(big + 1)),
		mmvalue.Float(0), mmvalue.Float(math.Copysign(0, -1)), mmvalue.Float(math.NaN()), mmvalue.Float(math.Inf(1)), mmvalue.Float(math.Inf(-1)),
		mmvalue.Float(-9223372036854775808), mmvalue.Float(9223372036854775808),
		mmvalue.String(""), mmvalue.String("a"), mmvalue.String("c"), mmvalue.String("zz"), mmvalue.String("b0"),
		mmvalue.Bool(true), mmvalue.Array(mmvalue.Int(1)), mmvalue.ObjectOf("k", 1),
	}
	for _, c := range cases {
		p, ref := columnOf(c.vals, true), boxedOf(c.vals)
		d, rd := p.dict(0), ref.dict(0)
		route := "hash"
		switch {
		case d.ints != nil:
			route = "int"
		case d.strs != nil:
			route = "string"
		}
		if route != c.route {
			t.Errorf("%s: route %q, want %q", c.name, route, c.route)
		}
		if !slices.Equal(d.codes, rd.codes) || !slices.Equal(d.first, rd.first) {
			t.Errorf("%s: codes %v first %v, want %v %v", c.name, d.codes, d.first, rd.codes, rd.first)
		}
		byRank, ties := d.ranked()
		if wantRank, wantTies := rd.ranked(); !slices.Equal(byRank, wantRank) || ties != wantTies {
			t.Errorf("%s: ranked %v %v, want %v %v", c.name, byRank, ties, wantRank, wantTies)
		}
		all := append(slices.Clone(probes), c.vals...)
		for _, v := range all {
			if got, want := d.code(v), rd.code(v); got != want {
				t.Errorf("%s: code(%v) = %d, want %d", c.name, v, got, want)
			}
			var want []mmvalue.Value
			if k := rd.code(v); k > 0 {
				for r, kr := range rd.codes {
					if kr == k {
						want = append(want, mmvalue.Int(int64(r)))
					}
				}
			}
			if got := p.byKey().get(v); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: matches.get(%v) = %v, want %v", c.name, v, got, want)
			}
		}
		if got, want := d.keeps(all), rd.keeps(all); !slices.Equal(got, want) {
			t.Errorf("%s: keeps %v, want %v", c.name, got, want)
		}
		// Probe columns: the values themselves, the values and the probes
		// sorted as the column's kind sorts them (each twice), shuffled,
		// and boxed.
		var sorted []mmvalue.Value
		for _, v := range all {
			if k := v.Kind(); k == p.cols[0].kind && p.cols[0].vals == nil {
				sorted = append(sorted, v, v)
			}
		}
		slices.SortFunc(sorted, mmvalue.Compare)
		for _, probe := range []*projection{columnOf(c.vals, false), columnOf(sorted, false), columnOf(shuffled(sorted), false), boxedOf(all)} {
			rows := probe.link(0, p)
			for r, got := range rows {
				want := int32(-1)
				if k := rd.code(probe.cols[0].value(r)); k > 0 {
					want = rd.first[k]
				}
				if got != want {
					t.Errorf("%s: link of %v = row %d, want %d", c.name, probe.cols[0].value(r), got, want)
				}
			}
		}
	}
}
