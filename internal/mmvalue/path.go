package mmvalue

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a parsed dotted path into nested Values, e.g. "address.city"
// or "items.2.price". Numeric segments index arrays; all other segments
// index object fields.
type Path []string

// ParsePath splits a dotted path expression into segments. An empty
// expression yields an empty path, which addresses the root value.
func ParsePath(expr string) Path {
	if expr == "" {
		return nil
	}
	return Path(strings.Split(expr, "."))
}

// String joins the path back into its dotted form.
func (p Path) String() string { return strings.Join([]string(p), ".") }

// Lookup resolves the path within root. It returns (Null, false) for any
// missing segment, kind mismatch, or out-of-range array index.
func (p Path) Lookup(root Value) (Value, bool) {
	cur := root
	for _, seg := range p {
		switch cur.kind {
		case KindObject:
			v, ok := cur.obj.Get(seg)
			if !ok {
				return Null, false
			}
			cur = v
		case KindArray:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(cur.arr) {
				return Null, false
			}
			cur = cur.arr[idx]
		default:
			return Null, false
		}
	}
	return cur, true
}

// LookupOr resolves the path and returns def when the path is missing.
func (p Path) LookupOr(root Value, def Value) Value {
	if v, ok := p.Lookup(root); ok {
		return v
	}
	return def
}

// Set writes v at the path inside root, creating intermediate objects
// as needed, and returns the (possibly new) root. Array segments must
// address existing indexes; objects are extended freely. Setting through
// a scalar replaces it with an object. Set clones nothing: callers that
// need isolation should Clone root first.
func (p Path) Set(root Value, v Value) (Value, error) {
	if len(p) == 0 {
		return v, nil
	}
	if root.kind != KindObject && root.kind != KindArray {
		root = FromObject(NewObject())
	}
	cur := root
	for i, seg := range p[:len(p)-1] {
		switch cur.kind {
		case KindObject:
			next, ok := cur.obj.Get(seg)
			if !ok || (next.kind != KindObject && next.kind != KindArray) {
				next = FromObject(NewObject())
				cur.obj.Set(seg, next)
			}
			cur = next
		case KindArray:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(cur.arr) {
				return root, fmt.Errorf("mmvalue: path %q: bad array index %q", p, seg)
			}
			next := cur.arr[idx]
			if next.kind != KindObject && next.kind != KindArray {
				next = FromObject(NewObject())
				cur.arr[idx] = next
			}
			cur = next
		default:
			return root, fmt.Errorf("mmvalue: path %q: cannot descend into %s at %q", p, cur.kind, p[:i+1])
		}
	}
	last := p[len(p)-1]
	switch cur.kind {
	case KindObject:
		cur.obj.Set(last, v)
	case KindArray:
		idx, err := strconv.Atoi(last)
		if err != nil || idx < 0 || idx >= len(cur.arr) {
			return root, fmt.Errorf("mmvalue: path %q: bad array index %q", p, last)
		}
		cur.arr[idx] = v
	default:
		return root, fmt.Errorf("mmvalue: path %q: cannot set into %s", p, cur.kind)
	}
	return root, nil
}

// Delete removes the field addressed by the path. It reports whether a
// field was removed. Deleting array elements is not supported.
func (p Path) Delete(root Value) bool {
	if len(p) == 0 {
		return false
	}
	parent, ok := Path(p[:len(p)-1]).Lookup(root)
	if !ok || parent.kind != KindObject {
		return false
	}
	return parent.obj.Delete(p[len(p)-1])
}
