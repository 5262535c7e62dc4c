// Package mmvalue defines the dynamic value system shared by every data
// model in UDBench. Relational cells, JSON documents, XML attribute
// values, graph properties and key-value payloads are all represented as
// Value, so the conversion engine and the cross-model query layer can
// move data between models without lossy re-encoding.
//
// A Value is one of: Null, Bool, Int, Float, String, Array, Object.
// Values are comparable with a total order (Compare), deep-equal
// (Equal), hashable (Hash) and deep-copyable (Clone). Object field order
// is not significant for equality but Object remembers insertion order
// for deterministic encoding.
package mmvalue

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The seven kinds of Value.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray
	KindObject
)

// String returns the lower-case kind name ("null", "bool", ...).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed multi-model value. The zero Value is Null.
// Values should be treated as immutable once shared between stores; use
// Clone before mutating a value obtained from a store.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	arr  []Value
	obj  *Object
}

// Object is an insertion-ordered string-keyed map of Values.
//
// Representation: small objects (up to smallObjectMax fields, the
// overwhelmingly common case for rows and documents) store their
// values in a slice parallel to keys and resolve lookups by linear
// key comparison — no hash map is allocated at all. Objects that grow
// beyond the threshold promote to a map once and stay there.
type Object struct {
	keys []string
	vals []Value          // parallel to keys while m == nil
	m    map[string]Value // nil in small mode
}

// smallObjectMax is the field count up to which an Object stays in the
// linear (map-free) representation.
const smallObjectMax = 16

// at returns the value at field position i (0 <= i < Len).
func (o *Object) at(i int) Value {
	if o.m == nil {
		return o.vals[i]
	}
	return o.m[o.keys[i]]
}

func (o *Object) smallIndex(key string) int {
	for i, k := range o.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// promote switches a small object to the map representation.
func (o *Object) promote() {
	o.m = make(map[string]Value, len(o.keys)*2)
	for i, k := range o.keys {
		o.m[k] = o.vals[i]
	}
	o.vals = nil
}

// Null is the null Value.
var Null = Value{kind: KindNull}

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Array returns an array Value wrapping elems (not copied).
func Array(elems ...Value) Value { return Value{kind: KindArray, arr: elems} }

// ObjectOf builds an object Value from alternating key, value pairs.
// It panics if the number of arguments is odd or a key is not a string.
func ObjectOf(pairs ...any) Value {
	if len(pairs)%2 != 0 {
		panic("mmvalue.ObjectOf: odd number of arguments")
	}
	n := len(pairs) / 2
	o := &Object{keys: make([]string, 0, n), vals: make([]Value, 0, n)}
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("mmvalue.ObjectOf: key %d is %T, not string", i/2, pairs[i]))
		}
		o.Set(k, From(pairs[i+1]))
	}
	return FromObject(o)
}

// Object2 builds the object {k1: v1, k2: v2} in one allocation, without
// ObjectOf's boxing of each argument. It panics if the keys are equal.
func Object2(k1 string, v1 Value, k2 string, v2 Value) Value {
	if k1 == k2 {
		panic("mmvalue.Object2: duplicate key " + strconv.Quote(k1))
	}
	p := &struct {
		o    Object
		keys [2]string
		vals [2]Value
	}{keys: [2]string{k1, k2}, vals: [2]Value{v1, v2}}
	p.o.keys, p.o.vals = p.keys[:], p.vals[:]
	return FromObject(&p.o)
}

// FromObject wraps an *Object as a Value. A nil Object yields an empty
// object value.
func FromObject(o *Object) Value {
	if o == nil {
		o = NewObject()
	}
	return Value{kind: KindObject, obj: o}
}

// From converts a native Go value into a Value. Supported inputs: nil,
// bool, all int/uint sizes, float32/64, string, Value, *Object,
// []Value, []any, map[string]any (keys sorted for determinism), and
// fmt.Stringer as a fallback is NOT used — unsupported types panic.
func From(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case Value:
		return x
	case *Object:
		return FromObject(x)
	case bool:
		return Bool(x)
	case int:
		return Int(int64(x))
	case int8:
		return Int(int64(x))
	case int16:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case uint:
		return Int(int64(x))
	case uint8:
		return Int(int64(x))
	case uint16:
		return Int(int64(x))
	case uint32:
		return Int(int64(x))
	case uint64:
		return Int(int64(x))
	case float32:
		return Float(float64(x))
	case float64:
		return Float(x)
	case string:
		return String(x)
	case []Value:
		return Array(x...)
	case []any:
		elems := make([]Value, len(x))
		for i, e := range x {
			elems[i] = From(e)
		}
		return Array(elems...)
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		o := NewObject()
		for _, k := range keys {
			o.Set(k, From(x[k]))
		}
		return FromObject(o)
	default:
		panic(fmt.Sprintf("mmvalue.From: unsupported type %T", v))
	}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b bool, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (i int64, ok bool) { return v.i, v.kind == KindInt }

// AsFloat returns the numeric payload as float64; ok for int and float.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (s string, ok bool) { return v.s, v.kind == KindString }

// AsArray returns the underlying element slice; ok is false if v is not
// an array. The slice must not be mutated by the caller.
func (v Value) AsArray() (elems []Value, ok bool) { return v.arr, v.kind == KindArray }

// AsObject returns the underlying object; ok is false if v is not an
// object. The object must not be mutated by the caller; Clone first.
func (v Value) AsObject() (o *Object, ok bool) { return v.obj, v.kind == KindObject }

// MustInt returns the integer payload and panics if v is not an int.
func (v Value) MustInt() int64 {
	if v.kind != KindInt {
		panic("mmvalue: MustInt on " + v.kind.String())
	}
	return v.i
}

// MustString returns the string payload and panics if v is not a string.
func (v Value) MustString() string {
	if v.kind != KindString {
		panic("mmvalue: MustString on " + v.kind.String())
	}
	return v.s
}

// MustObject returns the object payload and panics if v is not an object.
func (v Value) MustObject() *Object {
	if v.kind != KindObject {
		panic("mmvalue: MustObject on " + v.kind.String())
	}
	return v.obj
}

// Truthy reports the SQL/JS-style truthiness of v: null→false, bool→b,
// numbers→nonzero, string→nonempty, array/object→nonempty.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindArray:
		return len(v.arr) > 0
	case KindObject:
		return v.obj.Len() > 0
	}
	return false
}

// kindOrder defines the cross-kind collation: null < bool < number <
// string < array < object. Int and Float share a numeric class.
func kindOrder(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindArray:
		return 4
	case KindObject:
		return 5
	}
	return 6
}

// Compare defines a total order over Values: by kind class first
// (null < bool < number < string < array < object), then within class.
// Int and Float compare numerically. Arrays compare lexicographically.
// Objects compare by sorted key list, then by value per key.
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	ka, kb := kindOrder(a.kind), kindOrder(b.kind)
	if ka != kb {
		return cmpInt(ka, kb)
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		if a.b == b.b {
			return 0
		}
		if !a.b {
			return -1
		}
		return 1
	case KindInt, KindFloat:
		return compareNumeric(a, b)
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindArray:
		n := min(len(a.arr), len(b.arr))
		for i := 0; i < n; i++ {
			if c := Compare(a.arr[i], b.arr[i]); c != 0 {
				return c
			}
		}
		return cmpInt(len(a.arr), len(b.arr))
	case KindObject:
		return compareObjects(a.obj, b.obj)
	}
	return 0
}

func compareNumeric(a, b Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		return cmpInt64(a.i, b.i)
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	// NaN sorts before every other float so the order stays total.
	an, bn := math.IsNaN(af), math.IsNaN(bf)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

func compareObjects(a, b *Object) int {
	ak, bk := a.SortedKeys(), b.SortedKeys()
	n := min(len(ak), len(bk))
	for i := 0; i < n; i++ {
		if c := strings.Compare(ak[i], bk[i]); c != 0 {
			return c
		}
		av, _ := a.Get(ak[i])
		bv, _ := b.Get(bk[i])
		if c := Compare(av, bv); c != 0 {
			return c
		}
	}
	return cmpInt(len(ak), len(bk))
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports deep equality. It is equivalent to Compare(a, b) == 0;
// in particular Int(1) equals Float(1).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Set is a set of values under Equal: members bucketed by Hash and
// confirmed with Equal, so membership costs one hash, not one Equal per
// member. The zero Set is empty and read-only; Add needs NewSet's.
type Set struct{ buckets map[uint64][]Value }

// NewSet returns the set of vals.
func NewSet(vals ...Value) Set {
	s := Set{buckets: make(map[uint64][]Value, len(vals))}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// Add puts v in the set.
func (s Set) Add(v Value) {
	if !s.Has(v) {
		h := v.Hash()
		s.buckets[h] = append(s.buckets[h], v)
	}
}

// Has reports whether a member is Equal to v.
func (s Set) Has(v Value) bool {
	for _, m := range s.buckets[v.Hash()] {
		if Equal(m, v) {
			return true
		}
	}
	return false
}

// Hash returns a 64-bit FNV-1a style hash consistent with Equal:
// Equal values hash identically (numeric values hash via float64 when a
// fractional part exists, via int64 otherwise).
func (v Value) Hash() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindBool:
		mix(1)
		if v.b {
			mix(1)
		} else {
			mix(0)
		}
	case KindInt:
		mix(2)
		mix64(uint64(v.i))
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			// Hash like the equal integer so Equal ⇒ same Hash.
			mix(2)
			mix64(uint64(int64(v.f)))
		} else {
			mix(3)
			mix64(math.Float64bits(v.f))
		}
	case KindString:
		mix(4)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindArray:
		mix(5)
		for _, e := range v.arr {
			mix64(e.Hash())
		}
	case KindObject:
		mix(6)
		// XOR of key/value hashes keeps the hash independent of
		// insertion order, matching order-insensitive Equal.
		var acc uint64
		for i, k := range v.obj.keys {
			kh := String(k).Hash()
			vh := v.obj.at(i).Hash()
			acc ^= kh*31 + vh
		}
		mix64(acc)
	}
	return h
}

// Key renders v as a stable grouping key: two Equal values always
// share the same key, so it can bucket hash tables and equality
// indexes. Numerics are normalized so Int(1) and Float(1) share a
// bucket, in line with Equal. Callers that must be collision-exact
// (Key equality does not imply Equal for pathological values, e.g.
// huge ints colliding with floats or objects differing only in field
// order) should re-verify candidates with Equal.
func (v Value) Key() string {
	if f, ok := v.AsFloat(); ok { // one allocation: the digits go to a stack buffer first
		var buf [32]byte
		return string(strconv.AppendFloat(append(buf[:0], "num:"...), f, 'g', -1, 64))
	}
	var sb strings.Builder
	sb.WriteString(v.kind.String())
	sb.WriteByte(':')
	sb.WriteString(v.String())
	return sb.String()
}

// Clone returns a deep copy of v. Scalars are returned as-is.
func (v Value) Clone() Value {
	switch v.kind {
	case KindArray:
		elems := make([]Value, len(v.arr))
		for i, e := range v.arr {
			elems[i] = e.Clone()
		}
		return Array(elems...)
	case KindObject:
		return FromObject(v.obj.Clone())
	default:
		return v
	}
}

// String renders v in a compact JSON-like syntax for debugging.
func (v Value) String() string {
	var sb strings.Builder
	v.render(&sb)
	return sb.String()
}

func (v Value) render(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.b))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.render(sb)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, k := range v.obj.keys {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(k))
			sb.WriteByte(':')
			v.obj.at(i).render(sb)
		}
		sb.WriteByte('}')
	}
}

// NewObject returns an empty insertion-ordered object.
func NewObject() *Object {
	return &Object{}
}

// Len returns the number of fields.
func (o *Object) Len() int { return len(o.keys) }

// Get returns the value stored under key.
func (o *Object) Get(key string) (Value, bool) {
	if o.m == nil {
		if i := o.smallIndex(key); i >= 0 {
			return o.vals[i], true
		}
		return Value{}, false
	}
	v, ok := o.m[key]
	return v, ok
}

// GetOr returns the value stored under key, or def if absent.
func (o *Object) GetOr(key string, def Value) Value {
	if v, ok := o.Get(key); ok {
		return v
	}
	return def
}

// Set stores v under key, preserving the position of an existing key.
func (o *Object) Set(key string, v Value) {
	if o.m == nil {
		if i := o.smallIndex(key); i >= 0 {
			o.vals[i] = v
			return
		}
		if len(o.keys) < smallObjectMax {
			o.keys = append(o.keys, key)
			o.vals = append(o.vals, v)
			return
		}
		o.promote()
	}
	if _, ok := o.m[key]; !ok {
		o.keys = append(o.keys, key)
	}
	o.m[key] = v
}

// Delete removes key; it reports whether the key was present.
func (o *Object) Delete(key string) bool {
	if o.m == nil {
		i := o.smallIndex(key)
		if i < 0 {
			return false
		}
		o.keys = append(o.keys[:i], o.keys[i+1:]...)
		o.vals = append(o.vals[:i], o.vals[i+1:]...)
		return true
	}
	if _, ok := o.m[key]; !ok {
		return false
	}
	delete(o.m, key)
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	return true
}

// Rename moves the value under from to key to, keeping its position.
// It reports whether from existed. If to already exists it is replaced.
func (o *Object) Rename(from, to string) bool {
	v, ok := o.Get(from)
	if !ok || from == to {
		return ok
	}
	if _, exists := o.Get(to); exists {
		o.Delete(to)
	}
	if o.m == nil {
		i := o.smallIndex(from)
		o.keys[i] = to
		o.vals[i] = v
		return true
	}
	delete(o.m, from)
	o.m[to] = v
	for i, k := range o.keys {
		if k == from {
			o.keys[i] = to
			break
		}
	}
	return true
}

// Keys returns the field names in insertion order. The returned slice
// is shared; callers must not mutate it.
func (o *Object) Keys() []string { return o.keys }

// SortedKeys returns the field names sorted lexicographically.
func (o *Object) SortedKeys() []string {
	ks := make([]string, len(o.keys))
	copy(ks, o.keys)
	sort.Strings(ks)
	return ks
}

// ShallowClone returns a copy of the object whose field values are
// shared with the original: the key set is owned by the copy, so new
// fields can be added safely, but stored values must still be treated
// as immutable.
func (o *Object) ShallowClone() *Object {
	c := &Object{keys: make([]string, len(o.keys), len(o.keys)+2)}
	copy(c.keys, o.keys)
	if o.m == nil {
		c.vals = make([]Value, len(o.vals), len(o.vals)+2)
		copy(c.vals, o.vals)
		return c
	}
	c.m = make(map[string]Value, len(o.m)+2)
	for k, v := range o.m {
		c.m[k] = v
	}
	return c
}

// CopyFrom resets o to a shallow copy of src, reusing o's backing
// storage where possible. Field values are shared with src and must be
// treated as immutable. It is the zero-allocation (steady-state)
// variant of ShallowClone for callers that recycle a scratch object.
func (o *Object) CopyFrom(src *Object) {
	o.keys = append(o.keys[:0], src.keys...)
	if src.m == nil {
		o.m = nil
		o.vals = append(o.vals[:0], src.vals...)
		return
	}
	o.vals = o.vals[:0]
	if o.m == nil {
		o.m = make(map[string]Value, len(src.m))
	} else {
		clear(o.m)
	}
	for k, v := range src.m {
		o.m[k] = v
	}
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	c := &Object{keys: make([]string, len(o.keys))}
	copy(c.keys, o.keys)
	if o.m == nil {
		c.vals = make([]Value, len(o.vals))
		for i, v := range o.vals {
			c.vals[i] = v.Clone()
		}
		return c
	}
	c.m = make(map[string]Value, len(o.m))
	for k, v := range o.m {
		c.m[k] = v.Clone()
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
