// Package xmlstore implements the XML data model of the UDBMS
// benchmark: an in-memory XML node tree with a parser built on
// encoding/xml tokens, serialization and a transactional document
// store (a txn.Records of trees: locking, versions, visibility and
// garbage collection are the shared record layer's). Readers navigate
// trees with Attr, FirstChild and Children.
//
// In the Figure-1 dataset this store holds the Invoice documents.
package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is an element or text node in an XML tree. Attributes live on
// element nodes. Text nodes have Name == "" and carry Text.
type Node struct {
	Name     string // element name; empty for text nodes
	Attrs    []Attr
	Children []*Node
	Text     string // text payload for text nodes
}

// Attr is a name/value attribute pair.
type Attr struct {
	Name  string
	Value string
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// NewElement builds an element node.
func NewElement(name string, attrs ...Attr) *Node {
	return &Node{Name: name, Attrs: attrs}
}

// NewText builds a text node.
func NewText(text string) *Node { return &Node{Text: text} }

// Append adds children and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces an attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// FirstChild returns the first element child with the given name.
func (n *Node) FirstChild(name string) (*Node, bool) {
	for _, c := range n.Children {
		if !c.IsText() && c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// InnerText concatenates all descendant text.
func (n *Node) InnerText() string {
	if len(n.Children) == 1 && n.Children[0].IsText() {
		return n.Children[0].Text
	}
	var sb strings.Builder
	n.innerText(&sb)
	return sb.String()
}

func (n *Node) innerText(sb *strings.Builder) {
	if n.IsText() {
		sb.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.innerText(sb)
	}
}

// Clone returns a deep copy of the subtree.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports deep equality of two subtrees (attribute order is
// not significant; child order is).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	am := make(map[string]string, len(a.Attrs))
	for _, at := range a.Attrs {
		am[at.Name] = at.Value
	}
	for _, bt := range b.Attrs {
		if v, ok := am[bt.Name]; !ok || v != bt.Value {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Parse builds a node tree from XML text. Whitespace-only text between
// elements is dropped; other text is preserved. The result is the
// single root element.
func Parse(data []byte) (*Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlstore: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlstore: parse: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: parse: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: parse: text outside root")
			}
			top := stack[len(stack)-1]
			top.Children = append(top.Children, NewText(text))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// skipped
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstore: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstore: parse: unclosed elements")
	}
	return root, nil
}

// MustParse parses or panics; for tests and fixtures.
func MustParse(data string) *Node {
	n, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return n
}

// Marshal serializes the subtree to XML text.
func Marshal(n *Node) []byte {
	var buf bytes.Buffer
	writeNode(&buf, n)
	return buf.Bytes()
}

func writeNode(buf *bytes.Buffer, n *Node) {
	if n.IsText() {
		_ = xml.EscapeText(buf, []byte(n.Text))
		return
	}
	buf.WriteByte('<')
	buf.WriteString(n.Name)
	for _, a := range n.Attrs {
		buf.WriteByte(' ')
		buf.WriteString(a.Name)
		buf.WriteString(`="`)
		_ = xml.EscapeText(buf, []byte(a.Value))
		buf.WriteByte('"')
	}
	if len(n.Children) == 0 {
		buf.WriteString("/>")
		return
	}
	buf.WriteByte('>')
	for _, c := range n.Children {
		writeNode(buf, c)
	}
	buf.WriteString("</")
	buf.WriteString(n.Name)
	buf.WriteByte('>')
}
