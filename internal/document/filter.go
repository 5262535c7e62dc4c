package document

import (
	"fmt"
	"strings"

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

type cmpFilter struct {
	path string
	pp   mmvalue.Path // precompiled once at construction, reused per Match
	op   string       // "eq" or "gt"
	lit  mmvalue.Value
}

func newCmpFilter(path, op string, value any) cmpFilter {
	return cmpFilter{path: path, pp: mmvalue.ParsePath(path), op: op, lit: mmvalue.From(value)}
}

func (f cmpFilter) Match(doc mmvalue.Value) bool {
	v, ok := f.pp.Lookup(doc)
	if !ok {
		// Missing path: only eq-null matches.
		return f.op == "eq" && f.lit.IsNull()
	}
	c := mmvalue.Compare(v, f.lit)
	if f.op == "eq" {
		return c == 0
	}
	return c > 0
}

func (f cmpFilter) String() string {
	return fmt.Sprintf("{%s: {$%s: %s}}", f.path, f.op, f.lit)
}

func (f cmpFilter) equalityOn() (string, mmvalue.Value, bool) {
	if f.op == "eq" && !f.lit.IsNull() {
		return f.path, f.lit, true
	}
	return "", mmvalue.Null, false
}

// Eq matches path == value.
func Eq(path string, value any) Filter { return newCmpFilter(path, "eq", value) }

// Gt matches path > value.
func Gt(path string, value any) Filter { return newCmpFilter(path, "gt", value) }

type andFilter struct{ fs []Filter }

// All matches documents satisfying every sub-filter.
func All(fs ...Filter) Filter { return andFilter{fs} }

func (f andFilter) Match(doc mmvalue.Value) bool {
	for _, sub := range f.fs {
		if !sub.Match(doc) {
			return false
		}
	}
	return true
}

func (f andFilter) String() string {
	parts := make([]string, len(f.fs))
	for i, s := range f.fs {
		parts[i] = s.String()
	}
	return "{$and: [" + strings.Join(parts, ", ") + "]}"
}

func (f andFilter) equalityOn() (string, mmvalue.Value, bool) {
	for _, sub := range f.fs {
		if p, v, ok := sub.equalityOn(); ok {
			return p, v, true
		}
	}
	return "", mmvalue.Null, false
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

// FindOptions tunes a Find call.
type FindOptions struct {
	// Projection restricts result documents to these dotted paths
	// (plus _id).
	Projection []string
}

// Find returns clones of all documents visible to tx matching filter
// (nil = all), in id order. A nil opts means full documents.
func (c *Collection) Find(tx *txn.Tx, filter Filter, opts *FindOptions) []mmvalue.Value {
	var out []mmvalue.Value
	// Stream owns the access-path choice (index route vs scan).
	c.Stream(tx, filter, func(doc mmvalue.Value) bool {
		out = append(out, doc)
		return true
	})
	res := make([]mmvalue.Value, len(out))
	var projPaths []mmvalue.Path
	if opts != nil && len(opts.Projection) > 0 {
		projPaths = make([]mmvalue.Path, len(opts.Projection))
		for i, p := range opts.Projection {
			projPaths[i] = mmvalue.ParsePath(p)
		}
	}
	for i, doc := range out {
		if projPaths != nil {
			res[i] = project(doc, projPaths)
		} else {
			res[i] = doc.Clone()
		}
	}
	return res
}

// CountWhere returns the number of documents matching filter.
func (c *Collection) CountWhere(tx *txn.Tx, filter Filter) int {
	n := 0
	c.Stream(tx, filter, func(mmvalue.Value) bool {
		n++
		return true
	})
	return n
}

var idPath = mmvalue.ParsePath(IDField)

func project(doc mmvalue.Value, paths []mmvalue.Path) mmvalue.Value {
	o := mmvalue.NewObject()
	if id, ok := idPath.Lookup(doc); ok {
		o.Set(IDField, id)
	}
	root := mmvalue.FromObject(o)
	for _, pp := range paths {
		if v, ok := pp.Lookup(doc); ok {
			root, _ = pp.Set(root, v.Clone())
		}
	}
	return root
}
