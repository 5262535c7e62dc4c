package uql

import "testing"

// FuzzUQLParse feeds arbitrary text to the parser. The contract: Parse
// returns a query or an error — never both, never neither — and never
// panics, on any input up to 4 KiB. The seed corpus is the README and
// examples/uql queries plus the shapes that stress the grammar's edges.
func FuzzUQLParse(f *testing.F) {
	for _, src := range []string{
		`FOR c IN customer FILTER c.age > 40 LIMIT 5 RETURN c.name`,
		`FOR c IN customer FILTER c.city == "Helsinki" AND c.age >= 30 JOIN o IN orders ON o.customer_id == c.id SORT c.age DESC LIMIT 5 RETURN c.name, c.age, o`,
		"FOR c IN customer\n\t FILTER c.city == \"Helsinki\" AND c.age >= 40\n\t SORT c.age DESC LIMIT 3\n\t RETURN c.name, c.age",
		`FOR o IN orders FILTER o.total > 400 LIMIT 3 RETURN o._id, o.total`,
		`FOR c IN customer FILTER c.vip == TRUE JOIN o IN orders ON o.customer_id == c.id LIMIT 3 RETURN c.name, o`,
		`FOR v IN GRAPH(customer) FILTER v.id <= 3 RETURN v._vid`,
		`FOR c IN customer FILTER c.name LIKE "%nen" AND (c.city == "Turku" OR c.city == "Oulu") LIMIT 3 RETURN c.name, c.city`,
		`FOR c IN customer LIMIT 0 RETURN c`,
		`FOR c IN customer FILTER NOT (c.nope < 10) RETURN c`,
		`FOR c IN customer FILTER c.age >= -1.5e3 RETURN c`,
		``,
		`FOR`,
		`FOR c IN`,
		`FOR c IN customer FILTER ((((((c.a`,
		`FOR c IN customer FILTER c.name == "unterminated`,
		`FOR c IN GRAPH( RETURN`,
		"FOR c IN customer RETURN c.\x00\xff",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		q, err := Parse(src)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v; want exactly one of query or error", src, q, err)
		}
	})
}
