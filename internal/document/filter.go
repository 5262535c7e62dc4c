package document

import (
	"fmt"
	"sort"
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
	op   string       // "eq","ne","lt","le","gt","ge"
	lit  mmvalue.Value
}

func newCmpFilter(path, op string, value any) cmpFilter {
	return cmpFilter{path: path, pp: mmvalue.ParsePath(path), op: op, lit: mmvalue.From(value)}
}

func (f cmpFilter) Match(doc mmvalue.Value) bool {
	v, ok := f.pp.Lookup(doc)
	if !ok {
		// Missing path: only $ne and eq-null match.
		switch f.op {
		case "ne":
			return !f.lit.IsNull()
		case "eq":
			return f.lit.IsNull()
		default:
			return false
		}
	}
	c := mmvalue.Compare(v, f.lit)
	switch f.op {
	case "eq":
		return c == 0
	case "ne":
		return c != 0
	case "lt":
		return c < 0
	case "le":
		return c <= 0
	case "gt":
		return c > 0
	case "ge":
		return c >= 0
	}
	return false
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

// Ne matches path != value (missing paths match unless value is null).
func Ne(path string, value any) Filter { return newCmpFilter(path, "ne", value) }

// Lt matches path < value.
func Lt(path string, value any) Filter { return newCmpFilter(path, "lt", value) }

// Le matches path <= value.
func Le(path string, value any) Filter { return newCmpFilter(path, "le", value) }

// Gt matches path > value.
func Gt(path string, value any) Filter { return newCmpFilter(path, "gt", value) }

// Ge matches path >= value.
func Ge(path string, value any) Filter { return newCmpFilter(path, "ge", value) }

type containsFilter struct {
	path string
	pp   mmvalue.Path
	elem mmvalue.Value
}

// Contains matches documents whose array at path contains an element
// equal to value.
func Contains(path string, value any) Filter {
	return containsFilter{path: path, pp: mmvalue.ParsePath(path), elem: mmvalue.From(value)}
}

func (f containsFilter) Match(doc mmvalue.Value) bool {
	v, ok := f.pp.Lookup(doc)
	if !ok {
		return false
	}
	elems, ok := v.AsArray()
	if !ok {
		return false
	}
	for _, e := range elems {
		if mmvalue.Equal(e, f.elem) {
			return true
		}
	}
	return false
}

func (f containsFilter) String() string {
	return fmt.Sprintf("{%s: {$contains: %s}}", f.path, f.elem)
}

func (f containsFilter) equalityOn() (string, mmvalue.Value, bool) { return "", mmvalue.Null, false }

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
	// SortPath orders results by the value at this dotted path.
	SortPath string
	// Descending flips the sort order.
	Descending bool
	// Limit caps the number of results; <0 means unlimited.
	Limit int
	// Projection restricts result documents to these dotted paths
	// (plus _id).
	Projection []string
}

// Find returns clones of all documents visible to tx matching filter,
// honouring opts. A nil opts means no sort, no limit, full documents.
func (c *Collection) Find(tx *txn.Tx, filter Filter, opts *FindOptions) []mmvalue.Value {
	if filter == nil {
		filter = Everything()
	}
	limit := -1
	if opts != nil {
		limit = opts.Limit
		if opts.Limit == 0 {
			limit = -1
		}
	}
	var out []mmvalue.Value
	noSort := opts == nil || opts.SortPath == ""
	// Stream owns the access-path choice (index route vs scan).
	c.Stream(tx, filter, func(doc mmvalue.Value) bool {
		out = append(out, doc)
		// Early stop only when no post-sort is requested.
		return !(noSort && limit >= 0 && len(out) >= limit)
	})
	if opts != nil && opts.SortPath != "" {
		p := mmvalue.ParsePath(opts.SortPath)
		sort.SliceStable(out, func(i, j int) bool {
			a := p.LookupOr(out[i], mmvalue.Null)
			b := p.LookupOr(out[j], mmvalue.Null)
			if opts.Descending {
				return mmvalue.Compare(a, b) > 0
			}
			return mmvalue.Compare(a, b) < 0
		})
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
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

// FindOne returns the first matching document in id order.
func (c *Collection) FindOne(tx *txn.Tx, filter Filter) (mmvalue.Value, bool) {
	docs := c.Find(tx, filter, &FindOptions{Limit: 1})
	if len(docs) == 0 {
		return mmvalue.Null, false
	}
	return docs[0], true
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
