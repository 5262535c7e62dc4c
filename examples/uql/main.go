// UQL: the unified query language extension. The paper observes that
// "there is no standard multi-model query language available now";
// UQL is this repository's answer — one text language that seeds from
// any model, filters on dotted paths, joins across models and projects
// results, all under a single snapshot.
package main

import (
	"fmt"
	"log"

	"udbench/internal/datagen"
	"udbench/internal/udbms"
	"udbench/internal/uql"
)

func main() {
	db := udbms.Open()
	ds := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 3})
	if err := ds.Load(db.Stores()); err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// Relational source with filter, sort, limit, projection.
		`FOR c IN customer
		   FILTER c.city == "Helsinki" AND c.age >= 40
		   SORT c.age DESC LIMIT 3
		   RETURN c.name, c.age`,

		// Document source with a path filter.
		`FOR o IN orders FILTER o.total > 400 LIMIT 3 RETURN o._id, o.total`,

		// Cross-model join: relational customers to document orders.
		`FOR c IN customer
		   FILTER c.vip == TRUE
		   JOIN o IN orders ON o.customer_id == c.id
		   LIMIT 3
		   RETURN c.name, o`,

		// Graph source.
		`FOR v IN GRAPH(customer) FILTER v.id <= 3 RETURN v._vid`,

		// LIKE and boolean combinations.
		`FOR c IN customer
		   FILTER c.name LIKE "%nen" AND (c.city == "Turku" OR c.city == "Oulu")
		   LIMIT 3
		   RETURN c.name, c.city`,
	}
	for _, src := range queries {
		fmt.Println(">>", compact(src))
		rows, err := uql.Run(db, nil, src)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Println("  ", truncate(r.String(), 100))
		}
		fmt.Printf("   (%d rows)\n\n", len(rows))
	}
}

func compact(s string) string {
	out := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\n' || c == '\t' || c == ' ' {
			space = true
			continue
		}
		if space && len(out) > 0 {
			out = append(out, ' ')
		}
		space = false
		out = append(out, c)
	}
	return string(out)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
