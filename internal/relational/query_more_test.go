package relational

import (
	"fmt"
	"testing"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

func TestProjectionOfMissingColumns(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.Insert(nil, mmvalue.ObjectOf("id", 1, "name", "a"))
	rows := tbl.Query(nil).Project("id", "age", "bogus").Rows()
	o := rows[0].MustObject()
	if _, ok := o.Get("id"); !ok {
		t.Error("projection lost present column")
	}
	if _, ok := o.Get("age"); ok {
		t.Error("absent nullable column should not materialize")
	}
	if _, ok := o.Get("bogus"); ok {
		t.Error("unknown column should not materialize")
	}
}

func TestQueryStackedWhereIsConjunction(t *testing.T) {
	tbl := newCustomerTable(t)
	for i := 1; i <= 10; i++ {
		tbl.Insert(nil, row(int64(i), fmt.Sprintf("c%d", i), int64(20+i), "hki"))
	}
	n := tbl.Query(nil).
		Where(Col("age").In(21, 22, 23, 24, 25, 26, 27)).
		Where(Col("age").In(23, 24, 25, 26, 27, 28, 29)).
		Count()
	if n != 5 { // ages 23..27
		t.Errorf("stacked where = %d, want 5", n)
	}
}

func TestHashJoinSkipsNullKeys(t *testing.T) {
	mgr := txn.NewManager()
	db := NewDB(mgr)
	left, _ := db.CreateTable("l", MustSchema("id",
		Column{Name: "id", Type: TypeInt},
		Column{Name: "ref", Type: TypeInt, Nullable: true},
	))
	right, _ := db.CreateTable("r", MustSchema("id",
		Column{Name: "id", Type: TypeInt},
	))
	left.Insert(nil, mmvalue.ObjectOf("id", 1, "ref", 10))
	left.Insert(nil, mmvalue.ObjectOf("id", 2)) // null ref
	right.Insert(nil, mmvalue.ObjectOf("id", 10))
	joined := left.Query(nil).HashJoin(right, "ref", "id")
	if len(joined) != 1 {
		t.Fatalf("join rows = %d, want 1 (null keys never match)", len(joined))
	}
}

func TestIndexedCountMatchesScanCount(t *testing.T) {
	tbl := newCustomerTable(t)
	for i := 1; i <= 60; i++ {
		tbl.Insert(nil, row(int64(i), "n", int64(i%7), fmt.Sprintf("c%d", i%4)))
	}
	tbl.CreateIndex("city")
	for c := 0; c < 4; c++ {
		city := fmt.Sprintf("c%d", c)
		viaIndex := tbl.Query(nil).Where(Col("city").Eq(city)).Count()
		viaScan := 0
		for _, r := range tbl.Query(nil).Rows() {
			if v, _ := r.MustObject().Get("city"); mmvalue.Equal(v, mmvalue.String(city)) {
				viaScan++
			}
		}
		if viaIndex != viaScan {
			t.Errorf("city %s: index count %d != scan count %d", city, viaIndex, viaScan)
		}
	}
}

func TestInExprMultipleValuesNoIndexPin(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.CreateIndex("city")
	tbl.Insert(nil, row(1, "a", 30, "x"))
	tbl.Insert(nil, row(2, "b", 30, "y"))
	tbl.Insert(nil, row(3, "c", 30, "z"))
	in := Col("city").In("x", "y")
	if tbl.UsesIndex(in) {
		t.Error("multi-value IN must not pin one index bucket")
	}
	if n := tbl.Query(nil).Where(in).Count(); n != 2 {
		t.Errorf("IN matched %d", n)
	}
	// Single-value IN does use the index.
	in = Col("city").In("z")
	if !tbl.UsesIndex(in) {
		t.Error("single-value IN should use the index")
	}
	if n := tbl.Query(nil).Where(in).Count(); n != 1 {
		t.Errorf("single IN matched %d", n)
	}
}

func TestGroupByEmptyTable(t *testing.T) {
	tbl := newCustomerTable(t)
	res, err := tbl.Query(nil).GroupBy("city", Agg{Fn: "count", As: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("groups on empty table = %d", len(res))
	}
}

func TestAggregatesIgnoreNonNumeric(t *testing.T) {
	tbl := NewTable("t", MustSchema("id",
		Column{Name: "id", Type: TypeInt},
		Column{Name: "g", Type: TypeString},
		Column{Name: "v", Type: TypeString, Nullable: true},
	), txn.NewManager())
	tbl.Insert(nil, mmvalue.ObjectOf("id", 1, "g", "a", "v", "not-a-number"))
	tbl.Insert(nil, mmvalue.ObjectOf("id", 2, "g", "a"))
	res, err := tbl.Query(nil).GroupBy("g",
		Agg{Fn: "avg", Column: "v", As: "avg"},
		Agg{Fn: "min", Column: "v", As: "min"},
	)
	if err != nil {
		t.Fatal(err)
	}
	o := res[0].MustObject()
	if v, _ := o.Get("avg"); !v.IsNull() {
		t.Errorf("avg of non-numeric = %s, want null", v)
	}
	// min works lexicographically over the string value.
	if v, _ := o.Get("min"); !mmvalue.Equal(v, mmvalue.String("not-a-number")) {
		t.Errorf("min = %s", v)
	}
}
