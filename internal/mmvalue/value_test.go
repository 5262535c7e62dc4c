package mmvalue

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindArray: "array", KindObject: "object",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value should be null, got %s", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true) round-trip failed")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Error("Int(-7) round-trip failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float(2.5) round-trip failed")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("Int(3).AsFloat() should widen to 3.0")
	}
	if s, ok := String("hi").AsString(); !ok || s != "hi" {
		t.Error("String round-trip failed")
	}
	arr := Array(Int(1), Int(2))
	if es, ok := arr.AsArray(); !ok || len(es) != 2 {
		t.Error("Array round-trip failed")
	}
	if _, ok := Int(1).AsString(); ok {
		t.Error("AsString on int should fail")
	}
	if _, ok := String("x").AsInt(); ok {
		t.Error("AsInt on string should fail")
	}
	if _, ok := Null.AsObject(); ok {
		t.Error("AsObject on null should fail")
	}
}

func TestMustAccessorsPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("MustInt", func() { String("x").MustInt() })
	mustPanic("MustString", func() { Int(1).MustString() })
	mustPanic("MustObject", func() { Int(1).MustObject() })
	if Int(5).MustInt() != 5 {
		t.Error("MustInt on int failed")
	}
	if String("a").MustString() != "a" {
		t.Error("MustString on string failed")
	}
}

func TestFromConversions(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null},
		{true, Bool(true)},
		{int(3), Int(3)},
		{int8(3), Int(3)},
		{int16(3), Int(3)},
		{int32(3), Int(3)},
		{int64(3), Int(3)},
		{uint(3), Int(3)},
		{uint8(3), Int(3)},
		{uint16(3), Int(3)},
		{uint32(3), Int(3)},
		{uint64(3), Int(3)},
		{float32(1.5), Float(1.5)},
		{float64(1.5), Float(1.5)},
		{"s", String("s")},
		{[]any{1, "a"}, Array(Int(1), String("a"))},
		{map[string]any{"b": 2, "a": 1}, ObjectOf("a", 1, "b", 2)},
	}
	for _, c := range cases {
		if got := From(c.in); !Equal(got, c.want) {
			t.Errorf("From(%#v) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestFromUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported type")
		}
	}()
	From(struct{}{})
}

func TestObjectOfOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd pairs")
		}
	}()
	ObjectOf("a")
}

// TestObject2MatchesObjectOf checks that the one-allocation two-field
// constructor builds the object ObjectOf builds, in the same field
// order, and that the object grows and shrinks like any other.
func TestObject2MatchesObjectOf(t *testing.T) {
	v := Object2("key", String("k1"), "value", ObjectOf("rating", 3))
	want := ObjectOf("key", "k1", "value", ObjectOf("rating", 3))
	if !Equal(v, want) || v.String() != want.String() {
		t.Fatalf("Object2 = %s, want %s", v, want)
	}
	if n := testing.AllocsPerRun(100, func() { Object2("key", String("k"), "value", Null) }); n != 1 {
		t.Errorf("Object2 allocates %v times, want 1", n)
	}
	o := v.MustObject()
	o.Set("extra", Int(1))
	o.Delete("key")
	if got := FromObject(o).String(); got != `{"value":{"rating":3},"extra":1}` {
		t.Errorf("after Set and Delete: %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a duplicate key")
		}
	}()
	Object2("k", Null, "k", Null)
}

func TestCompareCrossKindOrder(t *testing.T) {
	ordered := []Value{
		Null, Bool(false), Bool(true), Int(-1), Int(0), Float(0.5), Int(1),
		String(""), String("a"), Array(), Array(Int(1)), FromObject(NewObject()),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := cmpInt(i, j)
			// Int(0) vs Float(0.5) vs Int(1) are genuinely ordered;
			// equal-rank duplicates don't occur in this list.
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumericMixed(t *testing.T) {
	if Compare(Int(1), Float(1.0)) != 0 {
		t.Error("Int(1) should equal Float(1.0)")
	}
	if Compare(Float(0.5), Int(1)) != -1 {
		t.Error("0.5 < 1 expected")
	}
	if Compare(Float(math.NaN()), Float(1)) != -1 {
		t.Error("NaN should sort before numbers")
	}
	if Compare(Float(math.NaN()), Float(math.NaN())) != 0 {
		t.Error("NaN should equal NaN in collation")
	}
	if Compare(Float(math.Inf(1)), Float(math.MaxFloat64)) != 1 {
		t.Error("+Inf should sort above MaxFloat64")
	}
}

func TestCompareObjects(t *testing.T) {
	a := ObjectOf("x", 1, "y", 2)
	b := ObjectOf("y", 2, "x", 1) // different insertion order
	if !Equal(a, b) {
		t.Error("object equality must ignore insertion order")
	}
	c := ObjectOf("x", 1)
	if Compare(c, a) != -1 {
		t.Error("shorter object with equal prefix should sort first")
	}
	d := ObjectOf("x", 2)
	if Compare(a, d) != -1 {
		t.Error("object compare should fall through to values")
	}
	e := ObjectOf("w", 1)
	if Compare(e, a) != -1 {
		t.Error("object compare by sorted key name")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	pairs := [][2]Value{
		{Int(1), Float(1.0)},
		{ObjectOf("a", 1, "b", 2), ObjectOf("b", 2, "a", 1)},
		{Array(Int(1), String("x")), Array(Int(1), String("x"))},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("pair %s / %s should be equal", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values must hash equally: %s vs %s", p[0], p[1])
		}
	}
	if Int(1).Hash() == Int(2).Hash() {
		t.Error("distinct ints should (almost surely) hash differently")
	}
}

func TestCloneIsolation(t *testing.T) {
	orig := ObjectOf("a", []any{1, 2}, "b", map[string]any{"c": 3})
	cl := orig.Clone()
	co := cl.MustObject()
	inner, _ := co.Get("b")
	inner.MustObject().Set("c", Int(99))
	arr, _ := co.Get("a")
	es, _ := arr.AsArray()
	es[0] = Int(42)
	// Original must be untouched.
	ob, _ := orig.MustObject().Get("b")
	if v, _ := ob.MustObject().Get("c"); !Equal(v, Int(3)) {
		t.Error("Clone leaked object mutation into original")
	}
	oa, _ := orig.MustObject().Get("a")
	oes, _ := oa.AsArray()
	if !Equal(oes[0], Int(1)) {
		t.Error("Clone leaked array mutation into original")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Bool(true), Int(1), Float(-0.5), String("x"), Array(Int(1)), ObjectOf("a", 1)}
	falsy := []Value{Null, Bool(false), Int(0), Float(0), String(""), Array(), FromObject(NewObject())}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%s should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%s should be falsy", v)
		}
	}
}

func TestObjectOperations(t *testing.T) {
	o := NewObject()
	o.Set("a", Int(1))
	o.Set("b", Int(2))
	o.Set("a", Int(10)) // overwrite keeps position
	if got := o.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Keys = %v", got)
	}
	if v := o.GetOr("a", Null); !Equal(v, Int(10)) {
		t.Error("GetOr existing failed")
	}
	if v := o.GetOr("zz", Int(-1)); !Equal(v, Int(-1)) {
		t.Error("GetOr default failed")
	}
	if !o.Delete("a") || o.Delete("a") {
		t.Error("Delete semantics wrong")
	}
	if o.Len() != 1 {
		t.Errorf("Len = %d, want 1", o.Len())
	}
}

func TestObjectRename(t *testing.T) {
	o := NewObject()
	o.Set("a", Int(1))
	o.Set("b", Int(2))
	o.Set("c", Int(3))
	if !o.Rename("b", "bb") {
		t.Fatal("Rename existing failed")
	}
	if got := o.Keys(); !reflect.DeepEqual(got, []string{"a", "bb", "c"}) {
		t.Errorf("Rename should preserve position, keys = %v", got)
	}
	if v, _ := o.Get("bb"); !Equal(v, Int(2)) {
		t.Error("Renamed value lost")
	}
	if o.Rename("nope", "x") {
		t.Error("Rename of missing key should report false")
	}
	// Rename onto an existing key replaces it.
	if !o.Rename("a", "c") {
		t.Fatal("Rename onto existing failed")
	}
	if v, _ := o.Get("c"); !Equal(v, Int(1)) {
		t.Error("Rename onto existing should carry value")
	}
	if _, ok := o.Get("a"); ok {
		t.Error("source key should be gone")
	}
	// Rename to itself is a no-op success.
	if !o.Rename("c", "c") {
		t.Error("self-rename should succeed")
	}
}

func TestStringRendering(t *testing.T) {
	v := ObjectOf("s", "a\"b", "n", 1, "arr", []any{nil, true})
	got := v.String()
	want := `{"s":"a\"b","n":1,"arr":[null,true]}`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

// --- property-based tests ---

// randomValue builds an arbitrary Value of bounded depth.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 1)
	case 2:
		return Int(int64(r.Intn(2000) - 1000))
	case 3:
		return Float(r.NormFloat64() * 100)
	case 4:
		letters := []byte("abcdefgh")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return String(string(b))
	case 5:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return Array(elems...)
	default:
		n := r.Intn(4)
		o := NewObject()
		for i := 0; i < n; i++ {
			o.Set(string(rune('a'+r.Intn(6))), randomValue(r, depth-1))
		}
		return FromObject(o)
	}
}

// valueBox adapts Value generation to testing/quick.
type valueBox struct{ V Value }

func (valueBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueBox{V: randomValue(r, 3)})
}

func TestPropCompareReflexiveAntisymmetric(t *testing.T) {
	f := func(a, b valueBox) bool {
		if Compare(a.V, a.V) != 0 {
			return false
		}
		return Compare(a.V, b.V) == -Compare(b.V, a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropCompareTransitive(t *testing.T) {
	f := func(a, b, c valueBox) bool {
		vs := []Value{a.V, b.V, c.V}
		// sort by Compare and verify total order holds pairwise
		if Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 {
			return Compare(vs[0], vs[2]) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestPropEqualImpliesSameHash(t *testing.T) {
	f := func(a valueBox) bool {
		c := a.V.Clone()
		return Equal(a.V, c) && a.V.Hash() == c.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropJSONRoundTrip(t *testing.T) {
	f := func(a valueBox) bool {
		v := sanitizeFloats(a.V)
		data, err := v.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := ParseJSON(data)
		if err != nil {
			return false
		}
		return Equal(v, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// sanitizeFloats replaces NaN/Inf (not representable in JSON) with 0.
func sanitizeFloats(v Value) Value {
	switch v.Kind() {
	case KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Float(0)
		}
		return v
	case KindArray:
		es, _ := v.AsArray()
		out := make([]Value, len(es))
		for i, e := range es {
			out[i] = sanitizeFloats(e)
		}
		return Array(out...)
	case KindObject:
		o, _ := v.AsObject()
		no := NewObject()
		for _, k := range o.Keys() {
			val, _ := o.Get(k)
			no.Set(k, sanitizeFloats(val))
		}
		return FromObject(no)
	default:
		return v
	}
}

// TestNumberKeyOneAlloc pins a number's Key to the bytes of its former
// form, "num:" + FormatFloat(f, 'g', -1, 64), and to one allocation.
func TestNumberKeyOneAlloc(t *testing.T) {
	for _, v := range []Value{
		Int(0), Int(1), Int(-1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(1e300),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
	} {
		f, _ := v.AsFloat()
		if got, want := v.Key(), "num:"+strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Errorf("%v.Key() = %q, want %q", v, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = v.Key() }); n > 1 {
			t.Errorf("%v.Key(): %v allocations, want at most 1", v, n)
		}
	}
}
