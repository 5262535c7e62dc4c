package document

import (
	"fmt"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

// Filter is a predicate over a document, addressed by dotted paths.
type Filter interface {
	// Match reports whether the document satisfies the filter.
	Match(doc mmvalue.Value) bool
	// String renders a Mongo-ish form for diagnostics.
	String() string
	// equalityOn returns (path, literal, true) when the filter pins
	// path == literal, enabling index lookups.
	equalityOn() (string, mmvalue.Value, bool)
}

// eqFilter matches path == lit.
type eqFilter struct {
	path string
	pp   mmvalue.Path // precompiled once at construction, reused per Match
	lit  mmvalue.Value
}

func (f eqFilter) Match(doc mmvalue.Value) bool {
	v, ok := f.pp.Lookup(doc)
	if !ok {
		// Missing path: only eq-null matches.
		return f.lit.IsNull()
	}
	return mmvalue.Compare(v, f.lit) == 0
}

func (f eqFilter) String() string {
	return fmt.Sprintf("{%s: {$eq: %s}}", f.path, f.lit)
}

func (f eqFilter) equalityOn() (string, mmvalue.Value, bool) {
	if !f.lit.IsNull() {
		return f.path, f.lit, true
	}
	return "", mmvalue.Null, false
}

// Eq matches path == value.
func Eq(path string, value any) Filter {
	return eqFilter{path: path, pp: mmvalue.ParsePath(path), lit: mmvalue.From(value)}
}

// funcFilter adapts an arbitrary predicate function.
type funcFilter struct {
	fn   func(doc mmvalue.Value) bool
	desc string
}

// Func builds a filter from an arbitrary predicate; desc is used for
// diagnostics. Func filters always scan (no index support).
func Func(desc string, fn func(doc mmvalue.Value) bool) Filter {
	return funcFilter{fn: fn, desc: desc}
}

func (f funcFilter) Match(doc mmvalue.Value) bool { return f.fn(doc) }
func (f funcFilter) String() string               { return "{$func: " + f.desc + "}" }
func (f funcFilter) equalityOn() (string, mmvalue.Value, bool) {
	return "", mmvalue.Null, false
}

type trueFilter struct{}

// Everything matches every document.
func Everything() Filter { return trueFilter{} }

func (trueFilter) Match(mmvalue.Value) bool                  { return true }
func (trueFilter) String() string                            { return "{}" }
func (trueFilter) equalityOn() (string, mmvalue.Value, bool) { return "", mmvalue.Null, false }

// Find returns clones of all documents visible to tx matching filter
// (nil = all), in id order.
func (c *Collection) Find(tx *txn.Tx, filter Filter) []mmvalue.Value {
	var out []mmvalue.Value
	// Stream owns the access-path choice (index route vs scan).
	c.Stream(tx, filter, func(doc mmvalue.Value) bool {
		out = append(out, doc.Clone())
		return true
	})
	return out
}
