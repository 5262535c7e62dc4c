package xmlstore

import (
	"fmt"
	"testing"

	"udbench/internal/txn"
)

const invoiceXML = `<invoice id="inv-1" currency="EUR">
  <customer cid="7">Alice</customer>
  <lines>
    <line sku="a1" qty="2" price="9.50"/>
    <line sku="b2" qty="1" price="3.00"/>
    <line sku="c3" qty="4" price="1.25"/>
  </lines>
  <total>27.00</total>
</invoice>`

func TestParseAndStructure(t *testing.T) {
	n := MustParse(invoiceXML)
	if n.Name != "invoice" {
		t.Fatalf("root = %s", n.Name)
	}
	if v, _ := n.Attr("id"); v != "inv-1" {
		t.Error("attr id wrong")
	}
	if _, ok := n.Attr("missing"); ok {
		t.Error("phantom attr")
	}
	lines, ok := n.FirstChild("lines")
	if !ok || elementCounts(lines)["line"] != 3 {
		t.Fatal("lines structure wrong")
	}
	if total, _ := n.FirstChild("total"); total.InnerText() != "27.00" {
		t.Error("total text wrong")
	}
	cust, _ := n.FirstChild("customer")
	if cust.InnerText() != "Alice" {
		t.Error("customer text wrong")
	}
	if _, ok := n.FirstChild("bogus"); ok {
		t.Error("phantom child")
	}
	if len(elementCounts(n)) != 3 {
		t.Errorf("root has element children %v", elementCounts(n))
	}
}

// elementCounts counts n's element children by name.
func elementCounts(n *Node) map[string]int {
	counts := map[string]int{}
	for _, c := range n.Children {
		if !c.IsText() {
			counts[c.Name]++
		}
	}
	return counts
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"just text",
		"<a><b></a></b>",
		"<a/><b/>",
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic")
		}
	}()
	MustParse("<")
}

func TestMarshalRoundTrip(t *testing.T) {
	n := MustParse(invoiceXML)
	data := Marshal(n)
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, data)
	}
	if !Equal(n, back) {
		t.Errorf("round-trip mismatch:\n%s\nvs\n%s", Marshal(n), Marshal(back))
	}
	// Escaping.
	e := NewElement("x", Attr{Name: "a", Value: `q"<&>`}).Append(NewText("<body&>"))
	back, err = Parse(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(e, back) {
		t.Error("escaped round-trip mismatch")
	}
}

func TestNodeMutationHelpers(t *testing.T) {
	n := NewElement("a")
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if v, _ := n.Attr("k"); v != "2" {
		t.Error("SetAttr replace failed")
	}
	c := MustParse(invoiceXML).Clone()
	orig := MustParse(invoiceXML)
	lines, _ := c.FirstChild("lines")
	lines.Children[0].SetAttr("sku", "MUTATED")
	if Equal(c, orig) {
		t.Error("clone mutation should diverge")
	}
	ol, _ := orig.FirstChild("lines")
	if v, _ := ol.Children[0].Attr("sku"); v != "a1" {
		t.Error("clone mutation leaked to source structure")
	}
}

func TestEqualSemantics(t *testing.T) {
	a := MustParse(`<a x="1" y="2"><b/>t</a>`)
	b := MustParse(`<a y="2" x="1"><b/>t</a>`)
	if !Equal(a, b) {
		t.Error("attribute order must not matter")
	}
	c := MustParse(`<a x="1" y="2">t<b/></a>`)
	if Equal(a, c) {
		t.Error("child order must matter")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Error("nil handling wrong")
	}
}

func TestStoreCRUDAndTransactions(t *testing.T) {
	s := NewStore("xml", txn.NewManager())
	doc := MustParse(invoiceXML)
	if err := s.Put(nil, "inv-1", doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(nil, "", doc); err == nil {
		t.Error("empty id should fail")
	}
	if err := s.Put(nil, "x", NewText("t")); err == nil {
		t.Error("text root should fail")
	}
	got, ok := s.Get(nil, "inv-1")
	if !ok || !Equal(got, doc) {
		t.Fatal("Get mismatch")
	}
	// Put stores a clone: mutating the original must not affect it.
	doc.SetAttr("id", "EVIL")
	got, _ = s.Get(nil, "inv-1")
	if v, _ := got.Attr("id"); v != "inv-1" {
		t.Error("store shares caller's tree")
	}
	// Update.
	err := s.Update(nil, "inv-1", func(d *Node) (*Node, error) {
		d.SetAttr("status", "paid")
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(nil, "inv-1")
	if v, _ := got.Attr("status"); v != "paid" {
		t.Error("update lost")
	}
	if err := s.Update(nil, "zz", func(d *Node) (*Node, error) { return d, nil }); err == nil {
		t.Error("update missing doc should fail")
	}
	// Transaction rollback.
	mgr := s.Manager()
	tx := mgr.Begin()
	s.Update(tx, "inv-1", func(d *Node) (*Node, error) {
		d.SetAttr("status", "void")
		return d, nil
	})
	s.Put(tx, "inv-2", MustParse(`<invoice id="inv-2"/>`))
	tx.Abort()
	got, _ = s.Get(nil, "inv-1")
	if v, _ := got.Attr("status"); v != "paid" {
		t.Error("aborted update leaked")
	}
	if _, ok := s.Get(nil, "inv-2"); ok {
		t.Error("aborted put leaked")
	}
	// Delete.
	s.Delete(nil, "inv-1")
	if _, ok := s.Get(nil, "inv-1"); ok {
		t.Error("deleted doc visible")
	}
	if err := s.Delete(nil, "never"); err != nil {
		t.Errorf("delete missing: %v", err)
	}
}

func TestStoreQueryAndScan(t *testing.T) {
	s := NewStore("xml", txn.NewManager())
	for i := 1; i <= 5; i++ {
		cur := "EUR"
		if i%2 == 0 {
			cur = "USD"
		}
		src := fmt.Sprintf(`<invoice id="inv-%d" currency="%s"><total>%d</total></invoice>`, i, cur, i*10)
		s.Put(nil, fmt.Sprintf("inv-%d", i), MustParse(src))
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	var ids []string
	s.Scan(nil, func(id string, doc *Node) bool {
		if cur, _ := doc.Attr("currency"); cur == "USD" {
			total, _ := doc.FirstChild("total")
			ids = append(ids, id+"="+total.InnerText())
		}
		return true
	})
	if fmt.Sprint(ids) != "[inv-2=20 inv-4=40]" {
		t.Errorf("USD totals = %v", ids)
	}
	// Early stop.
	n := 0
	s.Scan(nil, func(string, *Node) bool { n++; return false })
	if n != 1 {
		t.Errorf("scan early stop visited %d", n)
	}
}

func TestStoreSnapshot(t *testing.T) {
	s := NewStore("xml", txn.NewManager())
	s.Put(nil, "d", MustParse(`<doc v="1"/>`))
	reader := s.Manager().Begin()
	s.Update(nil, "d", func(n *Node) (*Node, error) {
		n.SetAttr("v", "2")
		return n, nil
	})
	got, _ := s.Get(reader, "d")
	if v, _ := got.Attr("v"); v != "1" {
		t.Errorf("snapshot sees v=%s", v)
	}
	got, _ = s.Get(nil, "d")
	if v, _ := got.Attr("v"); v != "2" {
		t.Errorf("latest sees v=%s", v)
	}
	reader.Abort()
}

func TestStoreCompact(t *testing.T) {
	s := NewStore("xml", txn.NewManager())
	s.Put(nil, "d", MustParse(`<doc/>`))
	for i := 0; i < 5; i++ {
		s.Update(nil, "d", func(n *Node) (*Node, error) {
			n.SetAttr("i", fmt.Sprint(i))
			return n, nil
		})
	}
	s.Put(nil, "dead", MustParse(`<doc/>`))
	s.Delete(nil, "dead")
	// Published()+1, not Oracle().Current()+1: the oracle runs ahead of
	// the watermark while commits are stamping, and a horizon past the
	// watermark can drop versions still visible to published snapshots.
	horizon := s.Manager().Published() + 1
	if dropped := s.Compact(horizon); dropped < 5 {
		t.Errorf("dropped = %d", dropped)
	}
	if _, ok := s.Get(nil, "d"); !ok {
		t.Error("live doc lost")
	}
	if s.Count() != 1 {
		t.Errorf("Count after compact = %d", s.Count())
	}
}

func BenchmarkParse(b *testing.B) {
	data := []byte(invoiceXML)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
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

// TestVersionCountsCommits pins Version's contract for the join cache:
// each committed Put, Update and Delete moves the counter once for each
// document it writes, an aborted transaction and reads do not move it,
// and Len bounds Count from above (it counts tombstoned ids too).
func TestVersionCountsCommits(t *testing.T) {
	s := NewStore("xml", txn.NewManager())
	doc := MustParse(invoiceXML)
	commit := func(name string, docs uint64, write func(tx *txn.Tx) error) {
		t.Helper()
		before := s.Version()
		tx := s.Manager().Begin()
		if err := write(tx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := s.Version(); after != before+docs {
			t.Errorf("%s: version %d -> %d, want %d steps", name, before, after, docs)
		}
	}
	commit("Put", 1, func(tx *txn.Tx) error { return s.Put(tx, "a", doc) })
	commit("Put ×2", 2, func(tx *txn.Tx) error {
		if err := s.Put(tx, "b", doc); err != nil {
			return err
		}
		return s.Put(tx, "c", doc)
	})
	commit("Update", 1, func(tx *txn.Tx) error {
		return s.Update(tx, "a", func(n *Node) (*Node, error) { n.SetAttr("status", "paid"); return n, nil })
	})
	commit("Delete", 1, func(tx *txn.Tx) error { return s.Delete(tx, "b") })

	before := s.Version()
	tx := s.Manager().Begin()
	if err := s.Put(tx, "d", doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(tx, "c"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	s.Get(nil, "a")
	s.Scan(nil, func(string, *Node) bool { return true })
	if after := s.Version(); after != before {
		t.Errorf("an aborted transaction and reads moved the version %d -> %d", before, after)
	}
	if s.Count() != 2 || s.Len() < s.Count() {
		t.Errorf("Count %d, Len %d: want 2 live documents and Len ≥ Count", s.Count(), s.Len())
	}
}
