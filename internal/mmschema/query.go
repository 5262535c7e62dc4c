package mmschema

import (
	"fmt"
	"strings"

	"udbench/internal/mmvalue"
)

func strDefault(s string) mmvalue.Value { return mmvalue.String(s) }
func intDefault(i int64) mmvalue.Value  { return mmvalue.Int(i) }

// HistQuery is a historical query fingerprint: the paths it reads and
// the type each predicate expects. The benchmark's evolution
// experiment replays these fingerprints against evolved schemas to
// measure the "usability of history queries" the paper calls out.
type HistQuery struct {
	Name string
	// Needs maps each referenced path to the field type the query's
	// predicates assume (FTNull = any type acceptable).
	Needs map[string]FieldType
}

// CompatResult explains whether one query still works on a schema.
type CompatResult struct {
	Query  string
	Valid  bool
	Reason string
}

// CheckCompat verifies a query against a schema: every needed path
// must exist, and typed predicates must match the field's current
// type (FTMixed fields accept any predicate type; Float accepts Int
// predicates and vice versa).
func CheckCompat(q HistQuery, s *Schema) CompatResult {
	for path, want := range q.Needs {
		f, ok := s.Fields[path]
		if !ok {
			return CompatResult{Query: q.Name, Valid: false,
				Reason: fmt.Sprintf("path %q no longer exists", path)}
		}
		if want == FTNull || f.Type == FTMixed {
			continue
		}
		if !typeCompatible(f.Type, want) {
			return CompatResult{Query: q.Name, Valid: false,
				Reason: fmt.Sprintf("path %q is now %s, query expects %s", path, f.Type, want)}
		}
	}
	return CompatResult{Query: q.Name, Valid: true}
}

func typeCompatible(have, want FieldType) bool {
	if have == want {
		return true
	}
	// Numeric widening keeps comparisons meaningful.
	if (have == FTInt && want == FTFloat) || (have == FTFloat && want == FTInt) {
		return true
	}
	return false
}

// CompatReport summarizes a query set against a schema.
type CompatReport struct {
	Total   int
	Valid   int
	Results []CompatResult
}

// CheckAll verifies every query against the schema.
func CheckAll(queries []HistQuery, s *Schema) CompatReport {
	rep := CompatReport{Total: len(queries)}
	for _, q := range queries {
		res := CheckCompat(q, s)
		if res.Valid {
			rep.Valid++
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// RewriteForOps attempts to rewrite a query's path references through
// an op chain (the "query migration" mode of the evolution
// experiment): renames, nests and flattens translate paths; removals
// stay broken. It returns the rewritten query and whether every path
// survived translation.
func RewriteForOps(q HistQuery, ops []Op) (HistQuery, bool) {
	out := HistQuery{Name: q.Name, Needs: make(map[string]FieldType, len(q.Needs))}
	allOK := true
	for path, ft := range q.Needs {
		np, ok := rewritePath(path, ops)
		if !ok {
			allOK = false
			continue
		}
		out.Needs[np] = ft
	}
	return out, allOK
}

func rewritePath(path string, ops []Op) (string, bool) {
	cur := path
	for _, op := range ops {
		switch o := op.(type) {
		case RenameField:
			if cur == o.From {
				cur = o.To
			} else if strings.HasPrefix(cur, o.From+".") {
				cur = o.To + cur[len(o.From):]
			}
		case RemoveField:
			if cur == o.Path || strings.HasPrefix(cur, o.Path+".") {
				return "", false
			}
		case NestFields:
			for _, f := range o.Fields {
				if cur == f || strings.HasPrefix(cur, f+".") {
					cur = o.Under + "." + cur
					break
				}
			}
		case FlattenField:
			if strings.HasPrefix(cur, o.Path+".") {
				child := cur[len(o.Path)+1:]
				cur = o.Path + o.sep() + strings.ReplaceAll(child, ".", o.sep())
			}
		case ChangeType, AddField:
			// Paths survive; type compatibility is checked separately.
		}
	}
	return cur, true
}

// StandardQuerySet returns the benchmark's reference historical
// queries over the Figure-1 order documents, used by experiment T4.
func StandardQuerySet() []HistQuery {
	return []HistQuery{
		{Name: "orders-by-customer", Needs: map[string]FieldType{"customer_id": FTInt}},
		{Name: "orders-by-status", Needs: map[string]FieldType{"status": FTString}},
		{Name: "order-total-range", Needs: map[string]FieldType{"total": FTFloat}},
		{Name: "order-date-scan", Needs: map[string]FieldType{"date": FTString}},
		{Name: "order-items-list", Needs: map[string]FieldType{"items": FTArray}},
		{Name: "order-full-fetch", Needs: map[string]FieldType{
			"_id": FTString, "customer_id": FTInt, "total": FTFloat, "status": FTString,
		}},
		{Name: "order-id-point", Needs: map[string]FieldType{"_id": FTString}},
		{Name: "order-any-shape", Needs: map[string]FieldType{"customer_id": FTNull}},
	}
}

// StandardEvolutionChain returns the benchmark's reference k-step
// evolution chain over order documents; the experiment truncates it to
// k ops. The mix is deliberately half additive, half destructive.
func StandardEvolutionChain() []Op {
	return []Op{
		AddField{Path: "channel", Type: FTString, Default: strDefault("web")},
		RenameField{From: "status", To: "state"},
		AddField{Path: "priority", Type: FTInt, Default: intDefault(0)},
		ChangeType{Path: "total", NewType: FTString},
		NestFields{Fields: []string{"date", "channel"}, Under: "meta"},
		RemoveField{Path: "items"},
		AddField{Path: "audit", Type: FTString, Default: strDefault("")},
		RenameField{From: "customer_id", To: "cust"},
	}
}
