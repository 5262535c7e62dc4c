package mmvalue

import (
	"reflect"
	"testing"
)

func sampleDoc() Value {
	return MustParseJSON(`{
		"id": 7,
		"name": "alice",
		"address": {"city": "Helsinki", "zip": "00100"},
		"items": [{"sku": "a1", "price": 9.5}, {"sku": "b2", "price": 3}]
	}`)
}

func TestParsePath(t *testing.T) {
	if p := ParsePath(""); len(p) != 0 {
		t.Errorf("empty path should have no segments, got %v", p)
	}
	p := ParsePath("a.b.0.c")
	if !reflect.DeepEqual([]string(p), []string{"a", "b", "0", "c"}) {
		t.Errorf("ParsePath = %v", p)
	}
	if p.String() != "a.b.0.c" {
		t.Errorf("Path.String = %q", p.String())
	}
}

func TestPathLookup(t *testing.T) {
	doc := sampleDoc()
	cases := []struct {
		path string
		want Value
		ok   bool
	}{
		{"id", Int(7), true},
		{"address.city", String("Helsinki"), true},
		{"items.0.sku", String("a1"), true},
		{"items.1.price", Int(3), true},
		{"items.2.sku", Null, false},
		{"items.x", Null, false},
		{"missing", Null, false},
		{"name.deeper", Null, false},
		{"", doc, true},
	}
	for _, c := range cases {
		got, ok := ParsePath(c.path).Lookup(doc)
		if ok != c.ok {
			t.Errorf("Lookup(%q) ok = %v, want %v", c.path, ok, c.ok)
			continue
		}
		if ok && !Equal(got, c.want) {
			t.Errorf("Lookup(%q) = %s, want %s", c.path, got, c.want)
		}
	}
	if v := ParsePath("nope").LookupOr(doc, Int(-1)); !Equal(v, Int(-1)) {
		t.Error("LookupOr default failed")
	}
}

func TestPathSet(t *testing.T) {
	doc := sampleDoc()
	if _, err := ParsePath("address.country").Set(doc, String("FI")); err != nil {
		t.Fatal(err)
	}
	if v, _ := ParsePath("address.country").Lookup(doc); !Equal(v, String("FI")) {
		t.Error("Set new nested field failed")
	}
	// Set through a missing intermediate creates objects.
	if _, err := ParsePath("meta.tags.primary").Set(doc, String("vip")); err != nil {
		t.Fatal(err)
	}
	if v, _ := ParsePath("meta.tags.primary").Lookup(doc); !Equal(v, String("vip")) {
		t.Error("Set with intermediate creation failed")
	}
	// Set into an array element.
	if _, err := ParsePath("items.0.price").Set(doc, Float(10)); err != nil {
		t.Fatal(err)
	}
	if v, _ := ParsePath("items.0.price").Lookup(doc); !Equal(v, Float(10)) {
		t.Error("Set into array element failed")
	}
	// Out-of-range array index errors.
	if _, err := ParsePath("items.9.price").Set(doc, Int(0)); err == nil {
		t.Error("Set past array end should error")
	}
	// Empty path replaces root.
	root, err := Path(nil).Set(doc, Int(1))
	if err != nil || !Equal(root, Int(1)) {
		t.Error("Set with empty path should return new root")
	}
	// Setting on a scalar root promotes it to an object.
	r2, err := ParsePath("a").Set(Int(5), Int(6))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ParsePath("a").Lookup(r2); !Equal(v, Int(6)) {
		t.Error("Set on scalar root should promote to object")
	}
}

func TestPathDelete(t *testing.T) {
	doc := sampleDoc()
	if !ParsePath("address.zip").Delete(doc) {
		t.Fatal("Delete existing failed")
	}
	if _, ok := ParsePath("address.zip").Lookup(doc); ok {
		t.Error("field still present after Delete")
	}
	if ParsePath("address.zip").Delete(doc) {
		t.Error("double Delete should report false")
	}
	if ParsePath("items.0").Delete(doc) {
		t.Error("array element delete unsupported, should report false")
	}
	if Path(nil).Delete(doc) {
		t.Error("empty path delete should report false")
	}
}

func TestJSONParseErrors(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"a":`)); err == nil {
		t.Error("truncated JSON should error")
	}
	if _, err := ParseJSON([]byte(`1 2`)); err == nil {
		t.Error("trailing data should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseJSON should panic on bad input")
		}
	}()
	MustParseJSON(`{`)
}

func TestJSONNumbers(t *testing.T) {
	v := MustParseJSON(`{"i": 42, "f": 4.5, "e": 1e2, "big": 123456789012345678901234567890}`)
	o := v.MustObject()
	if x, _ := o.Get("i"); x.Kind() != KindInt {
		t.Error("integer literal should decode to Int")
	}
	if x, _ := o.Get("f"); x.Kind() != KindFloat {
		t.Error("decimal literal should decode to Float")
	}
	if x, _ := o.Get("e"); x.Kind() != KindFloat {
		t.Error("exponent literal should decode to Float")
	}
	if x, _ := o.Get("big"); x.Kind() != KindFloat {
		t.Error("overflowing integer should fall back to Float")
	}
}
