package convert

import (
	"fmt"
	"sort"
	"strings"

	"udbench/internal/mmvalue"
	"udbench/internal/xmlstore"
)

// XML ↔ JSON conventions (the usual xml2json mapping):
//
//   - an element becomes an object;
//   - attributes become "@name" string fields;
//   - text content of an element with no element children becomes
//     "#text" (or the object collapses to a plain string when there
//     are no attributes);
//   - child elements are grouped by name: a single child maps to an
//     object/string field, repeated children map to an array.
//
// Documented losses: interleaved ordering of differently-named
// siblings, and mixed content (text between child elements) — neither
// occurs in the benchmark's invoice corpus, so invoice round trips are
// exact; the corner cases are covered by dedicated tests.

// XMLToDoc converts an XML tree to a JSON-style document value.
func XMLToDoc(n *xmlstore.Node) mmvalue.Value {
	return mmvalue.ObjectOf(n.Name, elementToValue(n))
}

func elementToValue(n *xmlstore.Node) mmvalue.Value {
	obj := mmvalue.NewObject()
	for _, a := range n.Attrs {
		obj.Set("@"+a.Name, mmvalue.String(a.Value))
	}
	var text strings.Builder
	childOrder := []string{}
	childGroups := map[string][]mmvalue.Value{}
	for _, c := range n.Children {
		if c.IsText() {
			text.WriteString(c.Text)
			continue
		}
		if _, seen := childGroups[c.Name]; !seen {
			childOrder = append(childOrder, c.Name)
		}
		childGroups[c.Name] = append(childGroups[c.Name], elementToValue(c))
	}
	for _, name := range childOrder {
		vs := childGroups[name]
		if len(vs) == 1 {
			obj.Set(name, vs[0])
		} else {
			obj.Set(name, mmvalue.Array(vs...))
		}
	}
	if t := text.String(); t != "" {
		if obj.Len() == 0 {
			// Text-only element with no attributes collapses to a string.
			return mmvalue.String(t)
		}
		obj.Set("#text", mmvalue.String(t))
	}
	return mmvalue.FromObject(obj)
}

// DocToXML converts a document produced by XMLToDoc (or following its
// conventions) back to an XML tree. The document must be a single-key
// object naming the root element.
func DocToXML(doc mmvalue.Value) (*xmlstore.Node, error) {
	obj, ok := doc.AsObject()
	if !ok || obj.Len() != 1 {
		return nil, fmt.Errorf("convert: DocToXML expects a single-key root object, got %s", doc.Kind())
	}
	name := obj.Keys()[0]
	body, _ := obj.Get(name)
	return valueToElement(name, body)
}

func valueToElement(name string, v mmvalue.Value) (*xmlstore.Node, error) {
	el := xmlstore.NewElement(name)
	switch v.Kind() {
	case mmvalue.KindObject:
		obj, _ := v.AsObject()
		// Attributes first (sorted for determinism), then children in
		// insertion order.
		var attrs []string
		for _, k := range obj.Keys() {
			if strings.HasPrefix(k, "@") {
				attrs = append(attrs, k)
			}
		}
		sort.Strings(attrs)
		for _, k := range attrs {
			av, _ := obj.Get(k)
			el.SetAttr(k[1:], scalarText(av))
		}
		for _, k := range obj.Keys() {
			if strings.HasPrefix(k, "@") {
				continue
			}
			cv, _ := obj.Get(k)
			if k == "#text" {
				el.Append(xmlstore.NewText(scalarText(cv)))
				continue
			}
			if elems, isArr := cv.AsArray(); isArr {
				for _, e := range elems {
					child, err := valueToElement(k, e)
					if err != nil {
						return nil, err
					}
					el.Append(child)
				}
				continue
			}
			child, err := valueToElement(k, cv)
			if err != nil {
				return nil, err
			}
			el.Append(child)
		}
	case mmvalue.KindNull:
		// empty element
	default:
		el.Append(xmlstore.NewText(scalarText(v)))
	}
	return el, nil
}

func scalarText(v mmvalue.Value) string {
	if s, ok := v.AsString(); ok {
		return s
	}
	return v.String()
}

// GraphSpec is the relational form of a property graph: a vertex table
// and an edge table.
type GraphSpec struct {
	Vertices []VertexRow
	Edges    []EdgeRow
}

// VertexRow is one vertex as relational data.
type VertexRow struct {
	ID    string
	Label string
	Props mmvalue.Value
}

// EdgeRow is one edge as relational data.
type EdgeRow struct {
	ID       string
	Label    string
	From, To string
	Props    mmvalue.Value
}

// FK declares a foreign-key relationship for RowsToGraphSpec.
type FK struct {
	// Column holds the referenced key value.
	Column string
	// RefPrefix prefixes the referenced vertex id (e.g. "customer:").
	RefPrefix string
	// EdgeLabel names the generated edges.
	EdgeLabel string
}

// RowsToGraphSpec converts relational rows to graph form: one vertex
// per row (id = prefix + pk rendered as string, props = the full row)
// and one edge per non-null foreign key.
func RowsToGraphSpec(rows []mmvalue.Value, pkCol, prefix, label string, fks []FK) GraphSpec {
	var gs GraphSpec
	for _, r := range rows {
		obj := r.MustObject()
		pk, _ := obj.Get(pkCol)
		vid := prefix + scalarText(pk)
		gs.Vertices = append(gs.Vertices, VertexRow{ID: vid, Label: label, Props: r.Clone()})
		for _, fk := range fks {
			ref, ok := obj.Get(fk.Column)
			if !ok || ref.IsNull() {
				continue
			}
			to := fk.RefPrefix + scalarText(ref)
			gs.Edges = append(gs.Edges, EdgeRow{
				ID:    fmt.Sprintf("%s-%s-%s", fk.EdgeLabel, vid, to),
				Label: fk.EdgeLabel,
				From:  vid,
				To:    to,
				Props: mmvalue.FromObject(mmvalue.NewObject()),
			})
		}
	}
	return gs
}

// GraphSpecToRows extracts the vertex property rows of one label —
// the inverse of RowsToGraphSpec's vertex direction.
func GraphSpecToRows(gs GraphSpec, label string) []mmvalue.Value {
	var out []mmvalue.Value
	for _, v := range gs.Vertices {
		if v.Label == label {
			out = append(out, v.Props.Clone())
		}
	}
	return out
}

// KVPair is one key-value record.
type KVPair struct {
	Key   string
	Value mmvalue.Value
}

// KVToRows converts key-value pairs to relational rows with columns
// (k, v_json). Lossless: the value is JSON-encoded.
func KVToRows(pairs []KVPair) ([]mmvalue.Value, error) {
	out := make([]mmvalue.Value, len(pairs))
	for i, p := range pairs {
		data, err := p.Value.MarshalJSON()
		if err != nil {
			return nil, err
		}
		row := mmvalue.NewObject()
		row.Set("k", mmvalue.String(p.Key))
		row.Set("v_json", mmvalue.String(string(data)))
		out[i] = mmvalue.FromObject(row)
	}
	return out, nil
}

// RowsToKV is the inverse of KVToRows.
func RowsToKV(rows []mmvalue.Value) ([]KVPair, error) {
	out := make([]KVPair, len(rows))
	for i, r := range rows {
		obj := r.MustObject()
		k, _ := obj.Get("k")
		vj, _ := obj.Get("v_json")
		s, _ := vj.AsString()
		v, err := mmvalue.ParseJSON([]byte(s))
		if err != nil {
			return nil, fmt.Errorf("convert: row %d: %w", i, err)
		}
		ks, _ := k.AsString()
		out[i] = KVPair{Key: ks, Value: v}
	}
	return out, nil
}
