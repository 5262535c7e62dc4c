package relational

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
)

func customerSchema() Schema {
	return MustSchema("id",
		Column{Name: "id", Type: TypeInt},
		Column{Name: "name", Type: TypeString},
		Column{Name: "age", Type: TypeInt, Nullable: true},
		Column{Name: "city", Type: TypeString, Nullable: true},
		Column{Name: "vip", Type: TypeBool, Nullable: true},
	)
}

func newCustomerTable(t testing.TB) *Table {
	t.Helper()
	return NewTable("customer", customerSchema(), txn.NewManager())
}

func row(id int64, name string, age int64, city string) mmvalue.Value {
	return mmvalue.ObjectOf("id", id, "name", name, "age", age, "city", city)
}

// setCol writes row pk again, as tx sees it, with column col set to v.
func setCol(tbl *Table, tx *txn.Tx, pk int64, col string, v any) error {
	cur, ok := tbl.Get(tx, pk)
	if !ok {
		return fmt.Errorf("no row %d", pk)
	}
	next := cur.Clone()
	next.MustObject().Set(col, mmvalue.From(v))
	return tbl.ApplyPut(tx, next)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("id"); err == nil {
		t.Error("pk not in columns should fail")
	}
	if _, err := NewSchema("id", Column{Name: "id", Type: TypeInt}, Column{Name: "id", Type: TypeInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("id", Column{Name: "id", Type: TypeInt, Nullable: true}); err == nil {
		t.Error("nullable pk should fail")
	}
	if _, err := NewSchema("id", Column{Name: ""}); err == nil {
		t.Error("empty column name should fail")
	}
	s := customerSchema()
	if err := s.ValidateRow(row(1, "a", 30, "x")); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.ValidateRow(mmvalue.ObjectOf("id", 1)); err == nil {
		t.Error("missing required column should fail")
	}
	if err := s.ValidateRow(mmvalue.ObjectOf("id", 1, "name", 5)); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := s.ValidateRow(mmvalue.ObjectOf("id", 1, "name", "a", "bogus", 1)); err == nil {
		t.Error("unknown column should fail")
	}
	if err := s.ValidateRow(mmvalue.Int(1)); err == nil {
		t.Error("non-object row should fail")
	}
	// Nullable column may be absent or null.
	if err := s.ValidateRow(mmvalue.ObjectOf("id", 1, "name", "a", "age", nil)); err != nil {
		t.Errorf("explicit null in nullable column: %v", err)
	}
	// Float column accepts ints.
	fs := MustSchema("id", Column{Name: "id", Type: TypeInt}, Column{Name: "price", Type: TypeFloat})
	if err := fs.ValidateRow(mmvalue.ObjectOf("id", 1, "price", 5)); err != nil {
		t.Errorf("int into float column: %v", err)
	}
}

func TestColumnTypeStrings(t *testing.T) {
	if TypeInt.String() != "INT" || TypeFloat.String() != "FLOAT" ||
		TypeString.String() != "VARCHAR" || TypeBool.String() != "BOOLEAN" {
		t.Error("type names wrong")
	}
	if ColumnType(9).String() != "TYPE(9)" {
		t.Error("unknown type name wrong")
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	ints := []int64{-1 << 62, -100, -1, 0, 1, 7, 100, 1 << 62}
	for i := 1; i < len(ints); i++ {
		a := EncodeKey(mmvalue.Int(ints[i-1]))
		b := EncodeKey(mmvalue.Int(ints[i]))
		if !(a < b) {
			t.Errorf("EncodeKey order violated: %d -> %q !< %d -> %q", ints[i-1], a, ints[i], b)
		}
	}
	floats := []float64{-1e10, -1, -0.5, 0, 0.5, 1, 1e10}
	for i := 1; i < len(floats); i++ {
		a := EncodeKey(mmvalue.Float(floats[i-1]))
		b := EncodeKey(mmvalue.Float(floats[i]))
		if !(a < b) {
			t.Errorf("float key order violated at %g", floats[i])
		}
	}
	if !(EncodeKey(mmvalue.String("abc")) < EncodeKey(mmvalue.String("abd"))) {
		t.Error("string keys must preserve order")
	}
	if !(EncodeKey(mmvalue.Bool(false)) < EncodeKey(mmvalue.Bool(true))) {
		t.Error("bool keys must preserve order")
	}
}

// TestEncodeKeyMatchesFmtForm pins the numeric key spelling byte for
// byte: keys are stored and logged, so EncodeKey must keep writing the
// tag followed by fmt's %016x of the sortable bits.
func TestEncodeKeyMatchesFmtForm(t *testing.T) {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	for _, i := range ints {
		want := "i" + fmt.Sprintf("%016x", uint64(i)^(1<<63))
		if got := EncodeKey(mmvalue.Int(i)); got != want {
			t.Errorf("EncodeKey(Int(%d)) = %q, want %q", i, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, f := range floats {
		want := "f" + fmt.Sprintf("%016x", floatSortableBits(f))
		if got := EncodeKey(mmvalue.Float(f)); got != want {
			t.Errorf("EncodeKey(Float(%g)) = %q, want %q", f, got, want)
		}
	}
}

// TestPKStreamAllocs bounds what a primary-key equality Stream costs:
// one key string per encoding it probes (Int and Float), nothing else.
func TestPKStreamAllocs(t *testing.T) {
	tbl := newCustomerTable(t)
	for i := int64(1); i <= 20; i++ {
		if err := tbl.Insert(nil, row(i, "c", 30, "hki")); err != nil {
			t.Fatal(err)
		}
	}
	where := Col("id").Eq(7)
	n := 0
	count := func(mmvalue.Value) bool { n++; return true }
	allocs := testing.AllocsPerRun(100, func() { tbl.Stream(nil, where, count) })
	if n == 0 {
		t.Fatal("the probe found no row")
	}
	if allocs > 2 {
		t.Errorf("PK-equality Stream made %.0f allocations, want at most 2", allocs)
	}
}

func TestPropEncodeKeyMatchesCompare(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(mmvalue.Int(a))
		kb := EncodeKey(mmvalue.Int(b))
		return (a < b) == (ka < kb) && (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := newCustomerTable(t)
	if err := tbl.Insert(nil, row(1, "alice", 30, "hki")); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(nil, 1)
	if !ok {
		t.Fatal("row not found")
	}
	if name, _ := got.MustObject().Get("name"); !mmvalue.Equal(name, mmvalue.String("alice")) {
		t.Error("wrong row")
	}
	// Duplicate PK rejected.
	if err := tbl.Insert(nil, row(1, "bob", 20, "tku")); err == nil {
		t.Error("duplicate pk should fail")
	}
	// Invalid row rejected.
	if err := tbl.Insert(nil, mmvalue.ObjectOf("id", 2)); err == nil {
		t.Error("invalid row should fail")
	}
	if err := tbl.Delete(nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(nil, 1); ok {
		t.Error("deleted row visible")
	}
	// Re-insert after delete is allowed.
	if err := tbl.Insert(nil, row(1, "carol", 40, "esp")); err != nil {
		t.Errorf("re-insert after delete: %v", err)
	}
	if tbl.Count() != 1 {
		t.Errorf("Count = %d", tbl.Count())
	}
}

func TestReturnedRowsAreClones(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.Insert(nil, row(1, "alice", 30, "hki"))
	rows := tbl.Query(nil).Rows()
	rows[0].MustObject().Set("name", mmvalue.String("EVIL"))
	got, _ := tbl.Get(nil, 1)
	if name, _ := got.MustObject().Get("name"); !mmvalue.Equal(name, mmvalue.String("alice")) {
		t.Error("query result mutation leaked into the store")
	}
}

func TestQueryWhereProject(t *testing.T) {
	tbl := newCustomerTable(t)
	for i := 1; i <= 10; i++ {
		city := "hki"
		if i%2 == 0 {
			city = "tku"
		}
		tbl.Insert(nil, row(int64(i), fmt.Sprintf("c%02d", i), int64(20+i), city))
	}
	rows := tbl.Query(nil).Where(Col("city").Eq("hki")).Rows()
	if len(rows) != 5 {
		t.Fatalf("filter got %d rows", len(rows))
	}
	rows = tbl.Query(nil).
		Where(Col("age").In(26, 27, 28, 29, 30)).
		Project("id", "age").
		Rows()
	if len(rows) != 5 {
		t.Fatalf("where+project got %d rows", len(rows))
	}
	if age, _ := rows[0].MustObject().Get("age"); !mmvalue.Equal(age, mmvalue.Int(26)) {
		t.Errorf("first row age = %s, want 26 (primary-key order)", age)
	}
	if _, hasName := rows[0].MustObject().Get("name"); hasName {
		t.Error("projection leaked column")
	}
	if n := tbl.Query(nil).Where(Col("age").In(25, 26, 27, 28, 29, 30)).Count(); n != 6 {
		t.Errorf("Count = %d, want 6", n)
	}
}

func TestExprSemantics(t *testing.T) {
	r := row(1, "alice", 30, "hki")
	cases := []struct {
		e    Expr
		want bool
	}{
		{Col("age").Eq(30), true},
		{Col("age").Eq(31), false},
		{Col("city").In("hki", "tku"), true},
		{Col("city").In("tku"), false},
		{And(Col("age").Eq(30), Col("city").Eq("hki")), true},
		{And(Col("age").Eq(30), Col("city").Eq("tku")), false},
		{TrueExpr{}, true},
		// NULL semantics: vip column is absent.
		{Col("vip").Eq(true), false},
		{Col("vip").Eq(nil), true},  // IS NULL
		{Col("age").Eq(nil), false}, // a present value is not NULL
	}
	for _, c := range cases {
		if got := c.e.Eval(r); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	// IN matches under mmvalue.Equal: an int literal a float cell of the
	// same number, and a float literal an int cell.
	num := mmvalue.ObjectOf("i", 3, "f", 2.0, "h", 2.5)
	for _, c := range []struct {
		e    Expr
		want bool
	}{
		{Col("f").In(7, 2), true},
		{Col("i").In(1.0, 3.0), true},
		{Col("h").In(2, 3), false},
		{Col("i").In(3.5, "3"), false},
	} {
		if got := c.e.Eval(num); got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.e, num, got, c.want)
		}
	}
	// String rendering sanity.
	s := And(Col("a").Eq(1), Col("c").In(1, 2)).String()
	if !strings.Contains(s, "AND") || !strings.Contains(s, "IN") {
		t.Errorf("expr string = %s", s)
	}
}

func TestIndexLookupAndPlan(t *testing.T) {
	tbl := newCustomerTable(t)
	for i := 1; i <= 100; i++ {
		city := fmt.Sprintf("city%d", i%10)
		tbl.Insert(nil, row(int64(i), fmt.Sprintf("c%03d", i), int64(20+i%50), city))
	}
	if err := tbl.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("city"); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := tbl.CreateIndex("bogus"); err == nil {
		t.Error("index on missing column should fail")
	}
	q := tbl.Query(nil).Where(Col("city").Eq("city3"))
	if !tbl.UsesIndex(Col("city").Eq("city3")) {
		t.Error("equality on the indexed city column should use the index")
	}
	if tbl.UsesIndex(Col("age").Eq(30)) {
		t.Error("equality on the unindexed age column should scan")
	}
	rows := q.Rows()
	if len(rows) != 10 {
		t.Fatalf("index lookup got %d rows, want 10", len(rows))
	}
	// Index result matches scan result.
	scanRows := tbl.Query(nil).Where(Col("city").In("city3", "nowhere")).Rows()
	if len(scanRows) != len(rows) {
		t.Errorf("index vs scan mismatch: %d vs %d", len(rows), len(scanRows))
	}
	// Index stays correct after updates: move one row to city3.
	setCol(tbl, nil, 1, "city", "city3")
	rows = tbl.Query(nil).Where(Col("city").Eq("city3")).Rows()
	if len(rows) != 11 {
		t.Errorf("after update index lookup got %d rows, want 11", len(rows))
	}
	// Stale entries (old city of row 1) must not produce wrong rows.
	rows = tbl.Query(nil).Where(Col("city").Eq("city1")).Rows()
	for _, r := range rows {
		if c, _ := r.MustObject().Get("city"); !mmvalue.Equal(c, mmvalue.String("city1")) {
			t.Error("index returned row with wrong city")
		}
	}
}

func TestIndexSnapshotCorrectness(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.CreateIndex("city")
	tbl.Insert(nil, row(1, "alice", 30, "hki"))
	mgr := tbl.Manager()
	reader := mgr.Begin()
	// After the reader starts, move the row to tku.
	setCol(tbl, nil, 1, "city", "tku")
	// The reader's snapshot must still find the row under hki.
	rows := tbl.Query(reader).Where(Col("city").Eq("hki")).Rows()
	if len(rows) != 1 {
		t.Errorf("snapshot index lookup found %d rows, want 1", len(rows))
	}
	// And must not find it under tku.
	rows = tbl.Query(reader).Where(Col("city").Eq("tku")).Rows()
	if len(rows) != 0 {
		t.Errorf("snapshot sees future index entry: %d rows", len(rows))
	}
	reader.Abort()
}

func TestHashJoin(t *testing.T) {
	mgr := txn.NewManager()
	db := NewDB(mgr)
	cust, _ := db.CreateTable("customer", customerSchema())
	orders, _ := db.CreateTable("orders", MustSchema("oid",
		Column{Name: "oid", Type: TypeInt},
		Column{Name: "cid", Type: TypeInt},
		Column{Name: "total", Type: TypeFloat},
	))
	for i := 1; i <= 3; i++ {
		cust.Insert(nil, row(int64(i), fmt.Sprintf("c%d", i), 30, "hki"))
	}
	for i := 1; i <= 6; i++ {
		orders.Insert(nil, mmvalue.ObjectOf("oid", i, "cid", i%3+1, "total", float64(i)*10))
	}
	joined := orders.Query(nil).Where(Col("oid").In(2, 3, 4, 5, 6)).HashJoin(cust, "cid", "id")
	if len(joined) != 5 {
		t.Fatalf("join got %d rows, want 5", len(joined))
	}
	for _, jr := range joined {
		o := jr.MustObject()
		cid, _ := o.Get("cid")
		jid, _ := o.Get("customer.id")
		if !mmvalue.Equal(cid, jid) {
			t.Errorf("join key mismatch: %s vs %s", cid, jid)
		}
		if _, ok := o.Get("customer.name"); !ok {
			t.Error("joined row missing right column")
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl := newCustomerTable(t)
	data := []struct {
		id   int64
		city string
		age  int64
	}{
		{1, "hki", 30}, {2, "hki", 40}, {3, "tku", 20}, {4, "tku", 24}, {5, "tku", 28},
	}
	for _, d := range data {
		tbl.Insert(nil, row(d.id, fmt.Sprintf("c%d", d.id), d.age, d.city))
	}
	res, err := tbl.Query(nil).GroupBy("city",
		Agg{Fn: "count", As: "n"},
		Agg{Fn: "avg", Column: "age", As: "avg_age"},
		Agg{Fn: "sum", Column: "age", As: "sum_age"},
		Agg{Fn: "min", Column: "age", As: "min_age"},
		Agg{Fn: "max", Column: "age", As: "max_age"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("groups = %d", len(res))
	}
	// Groups ordered by key: hki before tku (indexKey ordering on strings).
	hki := res[0].MustObject()
	if v, _ := hki.Get("n"); !mmvalue.Equal(v, mmvalue.Int(2)) {
		t.Errorf("hki count = %s", v)
	}
	if v, _ := hki.Get("avg_age"); !mmvalue.Equal(v, mmvalue.Float(35)) {
		t.Errorf("hki avg = %s", v)
	}
	tku := res[1].MustObject()
	if v, _ := tku.Get("sum_age"); !mmvalue.Equal(v, mmvalue.Float(72)) {
		t.Errorf("tku sum = %s", v)
	}
	if v, _ := tku.Get("min_age"); !mmvalue.Equal(v, mmvalue.Int(20)) {
		t.Errorf("tku min = %s", v)
	}
	if v, _ := tku.Get("max_age"); !mmvalue.Equal(v, mmvalue.Int(28)) {
		t.Errorf("tku max = %s", v)
	}
	if _, err := tbl.Query(nil).GroupBy("city", Agg{Fn: "median", As: "m"}); err == nil {
		t.Error("unknown aggregate should fail")
	}
	if _, err := tbl.Query(nil).GroupBy("city", Agg{Fn: "count"}); err == nil {
		t.Error("missing output name should fail")
	}
}

func TestTransactionRollbackRestoresRows(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.Insert(nil, row(1, "alice", 30, "hki"))
	mgr := tbl.Manager()
	tx := mgr.Begin()
	setCol(tbl, tx, 1, "age", 99)
	tbl.Insert(tx, row(2, "bob", 20, "tku"))
	tx.Abort()
	got, _ := tbl.Get(nil, 1)
	if age, _ := got.MustObject().Get("age"); !mmvalue.Equal(age, mmvalue.Int(30)) {
		t.Error("aborted update leaked")
	}
	if _, ok := tbl.Get(nil, 2); ok {
		t.Error("aborted insert leaked")
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB(txn.NewManager())
	if _, err := db.CreateTable("t", customerSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", customerSchema()); err == nil {
		t.Error("duplicate table should fail")
	}
	db.CreateTable("a", customerSchema())
	if names := db.TableNames(); strings.Join(names, ",") != "a,t" {
		t.Errorf("TableNames = %v", names)
	}
	if _, ok := db.Table("t"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := db.Table("zz"); ok {
		t.Error("phantom table")
	}
	if db.Manager() == nil {
		t.Error("Manager is nil")
	}
}

func TestConcurrentInsertsAndQueries(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.CreateIndex("city")
	var wg sync.WaitGroup
	const writers, per = 4, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(w*per + i)
				if err := tbl.Insert(nil, row(id, fmt.Sprintf("c%d", id), id%60, fmt.Sprintf("city%d", id%5))); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tbl.Query(nil).Where(Col("city").Eq("city2")).Rows()
			tbl.Query(nil).Where(Col("age").In(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)).Count()
		}
	}()
	wg.Wait()
	if tbl.Count() != writers*per {
		t.Fatalf("Count = %d, want %d", tbl.Count(), writers*per)
	}
	rows := tbl.Query(nil).Where(Col("city").Eq("city2")).Rows()
	if len(rows) != writers*per/5 {
		t.Errorf("city2 rows = %d, want %d", len(rows), writers*per/5)
	}
}

func TestCompactDropsVersionsAndDeadIndexEntries(t *testing.T) {
	tbl := newCustomerTable(t)
	tbl.CreateIndex("city")
	tbl.Insert(nil, row(1, "alice", 30, "hki"))
	for i := 0; i < 5; i++ {
		setCol(tbl, nil, 1, "age", 31+i)
	}
	tbl.Insert(nil, row(2, "bob", 20, "tku"))
	tbl.Delete(nil, 2)
	// Published()+1, not Oracle().Current()+1: the oracle runs ahead of
	// the watermark while commits are stamping, and a horizon past the
	// watermark can drop versions still visible to published snapshots.
	horizon := tbl.Manager().Published() + 1
	dropped := tbl.Compact(horizon)
	if dropped < 5 {
		t.Errorf("dropped = %d, want >= 5", dropped)
	}
	if got, ok := tbl.Get(nil, 1); !ok {
		t.Error("live row lost")
	} else if age, _ := got.MustObject().Get("age"); !mmvalue.Equal(age, mmvalue.Int(35)) {
		t.Errorf("latest version wrong after compact: %s", age)
	}
	rows := tbl.Query(nil).Where(Col("city").Eq("tku")).Rows()
	if len(rows) != 0 {
		t.Error("compacted dead row still reachable via index")
	}
}

// Property: query by scan and query by index always agree.
func TestPropIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := NewTable("p", customerSchema(), txn.NewManager())
		tbl.CreateIndex("city")
		live := map[int64]string{}
		for i := 0; i < 120; i++ {
			id := int64(r.Intn(30))
			switch r.Intn(4) {
			case 0, 1: // insert or replace
				city := fmt.Sprintf("c%d", r.Intn(5))
				if _, exists := live[id]; exists {
					setCol(tbl, nil, id, "city", city)
				} else {
					tbl.Insert(nil, row(id, "x", 1, city))
				}
				live[id] = city
			case 2:
				tbl.Delete(nil, id)
				delete(live, id)
			case 3: // verify one city
				city := fmt.Sprintf("c%d", r.Intn(5))
				got := tbl.Query(nil).Where(Col("city").Eq(city)).Rows()
				var want []int64
				for id, c := range live {
					if c == city {
						want = append(want, id)
					}
				}
				if len(got) != len(want) {
					return false
				}
				var gotIDs []int64
				for _, g := range got {
					id, _ := g.MustObject().Get("id")
					gotIDs = append(gotIDs, id.MustInt())
				}
				sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for i := range want {
					if gotIDs[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tbl := NewTable("b", customerSchema(), txn.NewManager())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Insert(nil, row(int64(i), "n", 30, "hki"))
	}
}

func BenchmarkIndexLookupVsScan(b *testing.B) {
	tbl := NewTable("b", customerSchema(), txn.NewManager())
	for i := 0; i < 10000; i++ {
		tbl.Insert(nil, row(int64(i), "n", int64(i%50), fmt.Sprintf("city%d", i%100)))
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.Query(nil).Where(Col("city").Eq("city42")).Rows()
		}
	})
	tbl.CreateIndex("city")
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl.Query(nil).Where(Col("city").Eq("city42")).Rows()
		}
	})
}
