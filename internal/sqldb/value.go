// Package sqldb implements a small relational database engine from scratch:
// typed tables, hash indexes, an SQL subset (CREATE TABLE/INDEX, INSERT,
// SELECT with joins, grouping, ordering, scalar subqueries and parameters,
// UPDATE, DELETE), and standard NULL semantics.
//
// The engine stands in for the four DBMSes of the paper's Section 5 (Oracle
// 7, MS Access, MS SQL Server, Postgres). It can be used embedded
// (in-process, the "MS Access" configuration) or behind the TCP server in
// sqldb/wire (the distributed configurations).
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ColType is a column type.
type ColType int

// Column types.
const (
	TInt ColType = iota
	TFloat
	TText
	TBool
)

// String returns the SQL spelling of the column type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TFloat:
		return "REAL"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	kind valueKind
	i    int64
	f    float64
	s    string
}

type valueKind uint8

const (
	kindNull valueKind = iota
	kindInt
	kindFloat
	kindText
	kindBool
)

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: kindInt, i: v} }

// NewFloat returns a REAL value.
func NewFloat(v float64) Value { return Value{kind: kindFloat, f: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: kindText, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: kindBool, i: i}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == kindNull }

// Int returns the integer payload (0 unless the value is an INTEGER).
func (v Value) Int() int64 { return v.i }

// Float returns the value as float64 for INTEGER and REAL values.
func (v Value) Float() float64 {
	if v.kind == kindInt {
		return float64(v.i)
	}
	return v.f
}

// Text returns the string payload.
func (v Value) Text() string { return v.s }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.i != 0 }

// IsNumeric reports whether the value is INTEGER or REAL.
func (v Value) IsNumeric() bool { return v.kind == kindInt || v.kind == kindFloat }

// IsText reports whether the value is TEXT.
func (v Value) IsText() bool { return v.kind == kindText }

// IsBool reports whether the value is BOOLEAN.
func (v Value) IsBool() bool { return v.kind == kindBool }

// IsInt reports whether the value is INTEGER.
func (v Value) IsInt() bool { return v.kind == kindInt }

// String renders the value as SQL literal text.
func (v Value) String() string {
	switch v.kind {
	case kindNull:
		return "NULL"
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case kindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case kindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Key returns a map key identifying the value for grouping and the result
// cache. Integer-valued REALs hash equal to INTEGERs so that 1 and 1.0 group
// together. Index probes use the typed keys of index.go instead, which also
// agree with `=` on integers beyond 2^53.
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the value's Key bytes to buf and returns the extended
// slice. The vectorized grouping pairs it with a pooled buffer, so a group
// key costs no per-value key string.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.kind {
	case kindNull:
		return append(buf, 'n')
	case kindInt:
		return strconv.AppendInt(append(buf, 'i'), v.i, 10)
	case kindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return strconv.AppendInt(append(buf, 'i'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(buf, 'f'), v.f, 'b', -1, 64)
	case kindText:
		return append(append(buf, 't'), v.s...)
	case kindBool:
		return strconv.AppendInt(append(buf, 'b'), v.i, 10)
	}
	return append(buf, '?')
}

// Compare orders two non-NULL values. It returns an error for incomparable
// types. NULL handling is the caller's responsibility (three-valued logic in
// predicates, NULLS LAST in ORDER BY).
func Compare(a, b Value) (int, error) {
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind == kindText && b.kind == kindText {
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind == kindBool && b.kind == kindBool {
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("sqldb: cannot compare %s and %s", a, b)
}

// coerce converts a value for storage into a column of type t.
func coerce(v Value, t ColType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case TInt:
		switch v.kind {
		case kindInt:
			return v, nil
		case kindFloat:
			// Only an integral value inside int64's range converts exactly;
			// Go leaves the conversion of anything else (1e300, ±Inf)
			// implementation-defined.
			if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f < -math.MinInt64 {
				return NewInt(int64(v.f)), nil
			}
		case kindBool:
			return NewInt(v.i), nil
		}
	case TFloat:
		switch v.kind {
		case kindInt:
			return NewFloat(float64(v.i)), nil
		case kindFloat:
			return v, nil
		}
	case TText:
		if v.kind == kindText {
			return v, nil
		}
	case TBool:
		switch v.kind {
		case kindBool:
			return v, nil
		case kindInt:
			return NewBool(v.i != 0), nil
		}
	}
	return Null, fmt.Errorf("sqldb: cannot store %s in %s column", v, t)
}
