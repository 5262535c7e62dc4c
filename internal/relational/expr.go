package relational

import (
	"fmt"
	"strings"

	"udbench/internal/mmvalue"
)

// Expr is a boolean predicate over a row. Expressions are built from
// Col with Eq, In and And, and evaluated against a row object.
type Expr interface {
	// Eval reports whether the row satisfies the predicate.
	Eval(row mmvalue.Value) bool
	// String renders a SQL-ish form for diagnostics.
	String() string
	// equalityOn returns (column, literal, true) when the expression
	// pins column = literal, enabling index lookups. Conjunctions
	// surface any pinned branch.
	equalityOn() (string, mmvalue.Value, bool)
}

// ColRef names a column inside a predicate; build with Col.
type ColRef struct{ Name string }

// Col references a column by name.
func Col(name string) ColRef { return ColRef{Name: name} }

func (c ColRef) value(row mmvalue.Value) mmvalue.Value {
	obj, ok := row.AsObject()
	if !ok {
		return mmvalue.Null
	}
	return obj.GetOr(c.Name, mmvalue.Null)
}

// eqExpr is column = literal.
type eqExpr struct {
	col ColRef
	lit mmvalue.Value
}

func (e eqExpr) Eval(row mmvalue.Value) bool {
	v := e.col.value(row)
	// SQL semantics: comparisons with NULL are never true, except that
	// UDBench treats equality against NULL as IS NULL for usability.
	if v.IsNull() || e.lit.IsNull() {
		return v.IsNull() && e.lit.IsNull()
	}
	return mmvalue.Compare(v, e.lit) == 0
}

func (e eqExpr) String() string {
	return fmt.Sprintf("%s = %s", e.col.Name, e.lit)
}

func (e eqExpr) equalityOn() (string, mmvalue.Value, bool) {
	if !e.lit.IsNull() {
		return e.col.Name, e.lit, true
	}
	return "", mmvalue.Null, false
}

// Eq builds column = literal.
func (c ColRef) Eq(v any) Expr { return eqExpr{c, mmvalue.From(v)} }

// inExpr implements column IN (set): the literals in order, and hashed
// for membership.
type inExpr struct {
	col  ColRef
	set  []mmvalue.Value
	hash mmvalue.Set
}

// In builds column IN (values...).
func (c ColRef) In(vals ...any) Expr {
	set := make([]mmvalue.Value, len(vals))
	for i, v := range vals {
		set[i] = mmvalue.From(v)
	}
	return inExpr{c, set, mmvalue.NewSet(set...)}
}

func (e inExpr) Eval(row mmvalue.Value) bool { return e.hash.Has(e.col.value(row)) }

func (e inExpr) String() string {
	parts := make([]string, len(e.set))
	for i, s := range e.set {
		parts[i] = s.String()
	}
	return fmt.Sprintf("%s IN (%s)", e.col.Name, strings.Join(parts, ", "))
}

func (e inExpr) equalityOn() (string, mmvalue.Value, bool) {
	if len(e.set) == 1 {
		return e.col.Name, e.set[0], true
	}
	return "", mmvalue.Null, false
}

type andExpr struct{ l, r Expr }

// And is logical conjunction.
func And(l, r Expr) Expr { return andExpr{l, r} }

func (e andExpr) Eval(row mmvalue.Value) bool { return e.l.Eval(row) && e.r.Eval(row) }
func (e andExpr) String() string              { return "(" + e.l.String() + " AND " + e.r.String() + ")" }
func (e andExpr) equalityOn() (string, mmvalue.Value, bool) {
	if c, v, ok := e.l.equalityOn(); ok {
		return c, v, true
	}
	return e.r.equalityOn()
}

// TrueExpr matches every row (used for unconditional scans).
type TrueExpr struct{}

// Eval always reports true.
func (TrueExpr) Eval(mmvalue.Value) bool { return true }

// String renders "TRUE".
func (TrueExpr) String() string { return "TRUE" }

func (TrueExpr) equalityOn() (string, mmvalue.Value, bool) { return "", mmvalue.Null, false }
