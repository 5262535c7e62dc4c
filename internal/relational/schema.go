// Package relational implements the relational data model of the UDBMS
// benchmark: typed tables with primary and secondary indexes,
// equality predicates (Eq, In, And), a small planner (index vs. scan),
// joins and aggregation. Rows are mmvalue objects validated against
// the table schema, which keeps conversion to and from the NoSQL models
// lossless.
//
// Everything model-agnostic about a row — locking, versions,
// visibility, the advisory indexes, garbage collection — is the shared
// record layer, txn.Records; this package adds the schema, the
// predicate language and its routing, and the relational WAL ops.
package relational

import (
	"fmt"
	"math"

	"udbench/internal/mmvalue"
	"udbench/internal/wal"
)

// ColumnType is the declared type of a relational column.
type ColumnType uint8

// Supported column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL-ish type name.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// accepts reports whether a value conforms to the column type.
func (t ColumnType) accepts(v mmvalue.Value) bool {
	switch t {
	case TypeInt:
		return v.Kind() == mmvalue.KindInt
	case TypeFloat:
		return v.Kind() == mmvalue.KindFloat || v.Kind() == mmvalue.KindInt
	case TypeString:
		return v.Kind() == mmvalue.KindString
	case TypeBool:
		return v.Kind() == mmvalue.KindBool
	default:
		return false
	}
}

// Column describes one table column.
type Column struct {
	Name     string
	Type     ColumnType
	Nullable bool
}

// Schema describes a table: its ordered columns and the primary key
// column. UDBench uses single-column primary keys (the Figure-1 data
// model needs no composite keys; composite logical keys are encoded as
// strings by the generator).
type Schema struct {
	Columns    []Column
	PrimaryKey string
}

// NewSchema builds a schema and validates it.
func NewSchema(pk string, cols ...Column) (Schema, error) {
	s := Schema{Columns: cols, PrimaryKey: pk}
	seen := make(map[string]bool, len(cols))
	pkFound := false
	for _, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("relational: empty column name")
		}
		if seen[c.Name] {
			return Schema{}, fmt.Errorf("relational: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if c.Name == pk {
			pkFound = true
			if c.Nullable {
				return Schema{}, fmt.Errorf("relational: primary key %q cannot be nullable", pk)
			}
		}
	}
	if !pkFound {
		return Schema{}, fmt.Errorf("relational: primary key %q is not a column", pk)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and fixtures.
func MustSchema(pk string, cols ...Column) Schema {
	s, err := NewSchema(pk, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Column returns the named column definition.
func (s Schema) Column(name string) (Column, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// ValidateRow checks that row (an object) conforms to the schema:
// every non-nullable column present with a conforming value, no unknown
// fields, primary key present.
func (s Schema) ValidateRow(row mmvalue.Value) error {
	obj, ok := row.AsObject()
	if !ok {
		return fmt.Errorf("relational: row must be an object, got %s", row.Kind())
	}
	for _, c := range s.Columns {
		v, present := obj.Get(c.Name)
		if !present || v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("relational: column %q is required", c.Name)
			}
			continue
		}
		if !c.Type.accepts(v) {
			return fmt.Errorf("relational: column %q expects %s, got %s", c.Name, c.Type, v.Kind())
		}
	}
	for _, k := range obj.Keys() {
		if _, known := s.Column(k); !known {
			return fmt.Errorf("relational: unknown column %q", k)
		}
	}
	return nil
}

// EncodeKey renders a primary-key value as an order-preserving string:
// byte comparison of encoded keys matches mmvalue.Compare for values of
// one type. Ints are encoded as sign-flipped fixed-width hex, floats by
// their order-preserving IEEE bit trick, strings raw, bools as 0/1.
func EncodeKey(v mmvalue.Value) string {
	switch v.Kind() {
	case mmvalue.KindInt:
		i, _ := v.AsInt()
		return hexKey('i', uint64(i)^(1<<63))
	case mmvalue.KindFloat:
		f, _ := v.AsFloat()
		return hexKey('f', floatSortableBits(f))
	case mmvalue.KindString:
		s, _ := v.AsString()
		return "s" + s
	case mmvalue.KindBool:
		if b, _ := v.AsBool(); b {
			return "b1"
		}
		return "b0"
	default:
		return "x" + v.String()
	}
}

// hexKey spells tag followed by u as 16 lower-case hex digits, the form
// fmt's %016x gives, with the one allocation the string needs.
func hexKey(tag byte, u uint64) string {
	const digits = "0123456789abcdef"
	var b [17]byte
	b[0] = tag
	for i := len(b) - 1; i > 0; i-- {
		b[i] = digits[u&0xf]
		u >>= 4
	}
	return string(b[:])
}

func floatSortableBits(f float64) uint64 {
	bits := mathFloat64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative: flip all
	}
	return bits | (1 << 63) // positive: flip sign
}

// pkEncodings returns the encoded keys a value Compare-equal to v may
// be stored under: its own, and alt, the other numeric spelling, or ""
// when there is none. Int and Float encode differently but compare
// numerically equal, so a numeric lookup must probe both spellings.
func pkEncodings(v mmvalue.Value) (key, alt string) {
	switch v.Kind() {
	case mmvalue.KindInt:
		i, _ := v.AsInt()
		alt = EncodeKey(mmvalue.Float(float64(i)))
	case mmvalue.KindFloat:
		f, _ := v.AsFloat()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			alt = EncodeKey(mmvalue.Int(int64(f)))
		}
	}
	return EncodeKey(v), alt
}

// indexKey renders any column value for equality indexing: a stable
// string that two Equal values share. Numerics are normalized so
// Int(1) and Float(1) share a bucket, in line with mmvalue.Equal.
func indexKey(v mmvalue.Value) string { return v.Key() }

// EncodeCreateTable renders a CreateTable as a WAL op: table name,
// primary key, then each column as (name, type byte, nullable).
func EncodeCreateTable(name string, s Schema) []byte {
	e := wal.NewOp(wal.OpRelCreateTable).String(name).String(s.PrimaryKey).
		Uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		e.String(c.Name).Byte(byte(c.Type)).Bool(c.Nullable)
	}
	return e.Build()
}

// DecodeCreateTable parses an OpRelCreateTable op body from d (which
// must already be positioned past the op code, i.e. fresh from
// wal.DecodeOp). It validates the schema through NewSchema.
func DecodeCreateTable(d *wal.OpDecoder) (string, Schema, error) {
	name := d.String()
	pk := d.String()
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return "", Schema{}, err
	}
	if n > 1<<16 {
		return "", Schema{}, fmt.Errorf("relational: create-table op claims %d columns", n)
	}
	cols := make([]Column, 0, n)
	for i := uint64(0); i < n; i++ {
		cols = append(cols, Column{
			Name:     d.String(),
			Type:     ColumnType(d.Byte()),
			Nullable: d.Bool(),
		})
	}
	if err := d.Done(); err != nil {
		return "", Schema{}, err
	}
	s, err := NewSchema(pk, cols...)
	if err != nil {
		return "", Schema{}, err
	}
	return name, s, nil
}

func mathFloat64bits(f float64) uint64 { return math.Float64bits(f) }
