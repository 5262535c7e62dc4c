package xmlstore

import (
	"fmt"
	"testing"
)

const nestedXML = `<catalog>
  <section name="db">
    <book id="1"><title>Red</title><author>A</author></book>
    <book id="2"><title>Blue</title><author>B</author></book>
    <sub>
      <section name="nosql">
        <book id="3"><title>Green</title><author>A</author></book>
      </section>
    </sub>
  </section>
  <section name="ml">
    <book id="4"><title>Red</title><author>C</author></book>
  </section>
</catalog>`

func TestXPathDescendantChains(t *testing.T) {
	doc := MustParse(nestedXML)
	cases := []struct {
		expr string
		want []string
	}{
		// Descendant step finds books at any depth.
		{"//book/@id", []string{"1", "2", "3", "4"}},
		// Descendant inside a child context.
		{"/catalog/section[@name='db']//book/@id", []string{"1", "2", "3"}},
		// Double descendant: sections anywhere, then books anywhere
		// below them (deduplicated).
		{"//section//book/@id", []string{"1", "2", "3", "4"}},
		// Wildcard with attribute predicate.
		{"/catalog/*[@name='ml']/book/@id", []string{"4"}},
		// Child-text predicate through a descendant axis.
		{"//book[title='Red']/@id", []string{"1", "4"}},
		{"//book[author='A']/title", []string{"Red", "Green"}},
		// Positional predicate applies per merged candidate pool.
		{"/catalog/section[1]/@name", []string{"db"}},
		{"/catalog/section[2]/@name", []string{"ml"}},
		// Descendant text().
		{"/catalog/section[@name='ml']/book/title/text()", []string{"Red"}},
	}
	for _, c := range cases {
		xp, err := CompileXPath(c.expr)
		if err != nil {
			t.Errorf("compile %q: %v", c.expr, err)
			continue
		}
		got := xp.SelectValues(doc)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestXPathSelectNodesOnValuePathsIsEmpty(t *testing.T) {
	doc := MustParse(nestedXML)
	xp, _ := CompileXPath("//book/@id")
	if nodes := xp.SelectNodes(doc); nodes != nil {
		t.Errorf("attr path should yield no nodes, got %d", len(nodes))
	}
	xp, _ = CompileXPath("//title/text()")
	if nodes := xp.SelectNodes(doc); nodes != nil {
		t.Errorf("text path should yield no nodes")
	}
}

func TestXPathMultiplePredicates(t *testing.T) {
	doc := MustParse(`<r><p a="1" b="x"/><p a="1" b="y"/><p a="2" b="x"/></r>`)
	xp, err := CompileXPath(`/r/p[@a='1'][@b='y']/@b`)
	if err != nil {
		t.Fatal(err)
	}
	if got := xp.SelectValues(doc); fmt.Sprint(got) != "[y]" {
		t.Errorf("stacked predicates = %v", got)
	}
	// Predicate then positional.
	xp, _ = CompileXPath(`/r/p[@a='1'][2]/@b`)
	if got := xp.SelectValues(doc); fmt.Sprint(got) != "[y]" {
		t.Errorf("predicate+positional = %v", got)
	}
	xp, _ = CompileXPath(`/r/p[@a='1'][3]/@b`)
	if got := xp.SelectValues(doc); len(got) != 0 {
		t.Errorf("past-end positional = %v", got)
	}
}

func TestValidateNestedRules(t *testing.T) {
	doc := MustParse(nestedXML)
	rules := map[string]ElementRule{
		"book":    {RequiredAttrs: []string{"id"}, RequiredChildren: []string{"title", "author"}},
		"section": {RequiredAttrs: []string{"name"}},
	}
	if errs := Validate(doc, rules); len(errs) != 0 {
		t.Errorf("valid nested doc errs = %v", errs)
	}
	broken := MustParse(`<catalog><section><book id="9"><title>t</title></book></section></catalog>`)
	errs := Validate(broken, rules)
	// section missing name; book missing author.
	if len(errs) != 2 {
		t.Errorf("violations = %v", errs)
	}
}

func TestInnerTextMixedContent(t *testing.T) {
	n := MustParse(`<p>Hello <b>bold</b> world</p>`)
	if got := n.InnerText(); got != "Hello bold world" {
		t.Errorf("InnerText = %q", got)
	}
}

// TestInnerText covers the one-text-child fast path next to the shapes
// that still concatenate.
func TestInnerText(t *testing.T) {
	cases := []struct {
		name string
		n    *Node
		want string
	}{
		{"one text child", NewElement("total").Append(NewText("27.00")), "27.00"},
		{"text node itself", NewText("t"), "t"},
		{"empty element", NewElement("e"), ""},
		{"empty text child", NewElement("e").Append(NewText("")), ""},
		{"one element child", MustParse(`<a><b>x</b></a>`), "x"},
		{"nested", MustParse(`<a><b><c>deep</c></b></a>`), "deep"},
		{"two text children", NewElement("e").Append(NewText("ab"), NewText("cd")), "abcd"},
		{"mixed", MustParse(`<p>Hello <b>bold</b> world</p>`), "Hello bold world"},
	}
	for _, c := range cases {
		if got := c.n.InnerText(); got != c.want {
			t.Errorf("%s: InnerText = %q, want %q", c.name, got, c.want)
		}
	}
}
