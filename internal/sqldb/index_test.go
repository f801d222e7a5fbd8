package sqldb

import (
	"math"
	"reflect"
	"testing"
)

// idxTable builds a table t (id INTEGER PRIMARY KEY, v INTEGER) and inserts
// the given v values with ids 1..n.
func idxTable(t *testing.T, vs ...Value) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`, nil)
	for i, v := range vs {
		mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, &Params{Positional: []Value{NewInt(int64(i + 1)), v}})
	}
	return db, db.Table("t")
}

func mustExec(t *testing.T, db *DB, sql string, params *Params) *Result {
	t.Helper()
	res, err := db.Exec(sql, params)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func ints(vs ...int64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = NewInt(v)
	}
	return out
}

// wantPositions checks one probe of the index against the expected
// positions (nil and empty both mean no match).
func wantPositions(t *testing.T, ix *colIndex, key Value, want ...int) {
	t.Helper()
	got := ix.get(key)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("get(%s) = %v, want %v", key, got, want)
	}
}

func TestIndexDenseToMapOnOutOfRangeInsert(t *testing.T) {
	db, tbl := idxTable(t, ints(10, 11, 12, 11)...)
	mustExec(t, db, `CREATE INDEX tv ON t (v)`, nil)
	ix := tbl.index(1)
	if ix.ints != nil || ix.base != 10 || len(ix.dense) != 3 || ix.distinct != 3 {
		t.Fatalf("after build: ints=%v base=%d len=%d distinct=%d, want dense [10,12]", ix.ints, ix.base, len(ix.dense), ix.distinct)
	}
	wantPositions(t, ix, NewInt(11), 1, 3)
	// Within the rule: the array grows upwards.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (5, 60)`, nil)
	if ix.ints != nil || len(ix.dense) != 51 {
		t.Fatalf("after in-range insert: ints=%v len=%d, want dense of 51 slots", ix.ints, len(ix.dense))
	}
	// 4 distinct keys allow 4*5+64 = 84 slots; key 1000 needs 991.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (6, 1000)`, nil)
	if ix.ints == nil || ix.dense != nil {
		t.Fatal("out-of-range insert kept the dense form")
	}
	wantPositions(t, ix, NewInt(11), 1, 3)
	wantPositions(t, ix, NewInt(60), 4)
	wantPositions(t, ix, NewFloat(1000), 5)
	wantPositions(t, ix, NewInt(13))
	// The map form takes later inserts too.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (7, 11)`, nil)
	wantPositions(t, ix, NewInt(11), 1, 3, 6)
}

func TestIndexDenseBaseMovesDown(t *testing.T) {
	db, tbl := idxTable(t)
	mustExec(t, db, `CREATE INDEX tv ON t (v)`, nil)
	ix := tbl.index(1)
	for i, v := range []int64{100, 90, 95, 40} {
		mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, &Params{Positional: ints(int64(i+1), v)})
	}
	if ix.ints != nil {
		t.Fatal("descending inserts within the rule left the dense form")
	}
	if ix.base > 40 || int64(len(ix.dense)) > denseLimit(ix.distinct) {
		t.Fatalf("base=%d len=%d distinct=%d: base not moved to 40 or rule broken", ix.base, len(ix.dense), ix.distinct)
	}
	wantPositions(t, ix, NewInt(100), 0)
	wantPositions(t, ix, NewInt(90), 1)
	wantPositions(t, ix, NewInt(95), 2)
	wantPositions(t, ix, NewInt(40), 3)
	wantPositions(t, ix, NewInt(41))
	wantPositions(t, ix, NewInt(39))
	wantPositions(t, ix, NewInt(101))
	// Far below: beyond the rule, the index converts.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (5, -100000)`, nil)
	if ix.ints == nil {
		t.Fatal("far downward insert kept the dense form")
	}
	wantPositions(t, ix, NewInt(-100000), 4)
	wantPositions(t, ix, NewInt(90), 1)
}

func TestIndexRebuildAfterUpdateAndDelete(t *testing.T) {
	for _, engine := range []string{EngineVector, EngineRow} {
		t.Run(engine, func(t *testing.T) {
			db, tbl := idxTable(t, ints(1, 2, 3, 4)...)
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `CREATE INDEX tv ON t (v)`, nil)
			// UPDATE of the key column to a far key: the rebuild picks the map.
			mustExec(t, db, `UPDATE t SET v = 1000000 WHERE id = 2`, nil)
			ix := tbl.index(1)
			if ix.ints == nil {
				t.Fatal("rebuild after a sparse UPDATE chose the dense form")
			}
			wantPositions(t, ix, NewInt(2))
			wantPositions(t, ix, NewInt(1000000), 1)
			// UPDATE back: the rebuild picks the dense form again.
			mustExec(t, db, `UPDATE t SET v = 2 WHERE id = 2`, nil)
			ix = tbl.index(1)
			if ix.ints != nil {
				t.Fatal("rebuild after a compact UPDATE chose the map form")
			}
			wantPositions(t, ix, NewInt(2), 1)
			// DELETE shifts positions; the rebuild follows.
			mustExec(t, db, `DELETE FROM t WHERE id = 1`, nil)
			ix = tbl.index(1)
			wantPositions(t, ix, NewInt(1))
			wantPositions(t, ix, NewInt(2), 0)
			wantPositions(t, ix, NewInt(4), 2)
			pk := tbl.index(0)
			wantPositions(t, pk, NewInt(4), 2)
			res := mustExec(t, db, `SELECT id FROM t WHERE v = 3`, nil)
			if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].Int() != 3 {
				t.Fatalf("seeded lookup after DELETE: %+v", res.Set.Rows)
			}
		})
	}
}

func TestIndexDuplicatePrimaryKeyBothForms(t *testing.T) {
	// Dense form.
	db, tbl := idxTable(t, ints(0, 0, 0)...)
	if tbl.index(0).ints != nil {
		t.Fatal("ids 1..3 did not get a dense primary index")
	}
	for _, dup := range []Value{NewInt(2), NewFloat(2)} {
		if _, err := db.Exec(`INSERT INTO t (id, v) VALUES (?, 0)`, &Params{Positional: []Value{dup}}); err == nil {
			t.Fatalf("dense form: duplicate primary key %s accepted", dup)
		}
	}
	// Map form.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (1099511627776, 0)`, nil)
	if tbl.index(0).ints == nil {
		t.Fatal("a far id did not convert the primary index")
	}
	for _, dup := range []Value{NewInt(3), NewInt(1 << 40)} {
		if _, err := db.Exec(`INSERT INTO t (id, v) VALUES (?, 0)`, &Params{Positional: []Value{dup}}); err == nil {
			t.Fatalf("map form: duplicate primary key %s accepted", dup)
		}
	}
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (4, 0)`, nil)
	if n := tbl.NumRows(); n != 5 {
		t.Fatalf("rows = %d, want 5", n)
	}
}

func TestIndexNullKeys(t *testing.T) {
	db, tbl := idxTable(t, NewInt(7), Null, NewInt(7), Null)
	mustExec(t, db, `CREATE INDEX tv ON t (v)`, nil)
	ix := tbl.index(1)
	// NULL keys stay matchable for seeding ...
	wantPositions(t, ix, Null, 1, 3)
	wantPositions(t, ix, NewInt(7), 0, 2)
	// ... and the WHERE recheck drops them on both engines.
	for _, engine := range []string{EngineVector, EngineRow} {
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		res := mustExec(t, db, `SELECT COUNT(*) FROM t WHERE v = ?`, &Params{Positional: []Value{Null}})
		if got := res.Set.Rows[0][0].Int(); got != 0 {
			t.Fatalf("%s: v = NULL matched %d rows", engine, got)
		}
	}
	// A rebuild keeps them.
	mustExec(t, db, `DELETE FROM t WHERE id = 1`, nil)
	wantPositions(t, tbl.index(1), Null, 0, 2)
}

func TestIndexKeyClasses(t *testing.T) {
	ix := &colIndex{}
	for pos, v := range []Value{
		NewInt(5), NewFloat(5), NewFloat(5.5), NewText("5"), NewBool(true), NewInt(1),
		NewFloat(math.Copysign(0, -1)), NewInt(0), NewFloat(math.Inf(1)),
		NewInt(maxExactInt), NewInt(maxExactInt + 1), NewInt(math.MaxInt64), NewFloat(math.NaN()),
	} {
		ix.add(v, pos)
	}
	wantPositions(t, ix, NewInt(5), 0, 1)
	wantPositions(t, ix, NewFloat(5.5), 2)
	wantPositions(t, ix, NewText("5"), 3)
	wantPositions(t, ix, NewBool(true), 4)
	wantPositions(t, ix, NewInt(1), 5) // bools and numbers never share a key
	wantPositions(t, ix, NewFloat(0), 6, 7)
	wantPositions(t, ix, NewFloat(math.Inf(1)), 8)
	// 2^53 and 2^53+1 are equal under `=`, which compares floats.
	wantPositions(t, ix, NewInt(maxExactInt+1), 9, 10)
	wantPositions(t, ix, NewFloat(maxExactInt), 9, 10)
	wantPositions(t, ix, NewFloat(math.MaxInt64), 11)
	wantPositions(t, ix, NewFloat(-math.NaN()), 12)
	wantPositions(t, ix, NewText("x"))
	wantPositions(t, ix, NewBool(false))
}

// TestIndexAgreesWithEqualityBeyond2p53 is the regression test for an index
// that changed a query's result: `=` compares numbers as floats, so
// 9007199254740992 = 9007199254740993, and an index keyed by the exact int64
// missed that match. A filter and a join, each with and without an index, on
// both engines.
func TestIndexAgreesWithEqualityBeyond2p53(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`, nil)
	mustExec(t, db, `CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)`, nil)
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (1, 9007199254740992)`, nil)
	mustExec(t, db, `INSERT INTO u (id, k) VALUES (1, 9007199254740993)`, nil)
	queries := []struct{ name, sql string }{
		{"filter", `SELECT COUNT(*) FROM t WHERE t.v = 9007199254740993`},
		{"filter-real", `SELECT COUNT(*) FROM t WHERE t.v = 9007199254740992.0`},
		{"point-lookup", `SELECT (SELECT t.id FROM t WHERE t.v = u.k) FROM u`},
		{"join-nested-loop", `SELECT COUNT(*) FROM u JOIN t ON t.v + 0 = u.k`},
		{"join-indexed", `SELECT COUNT(*) FROM u JOIN t ON t.v = u.k`},
		{"join-reversed", `SELECT COUNT(*) FROM t JOIN u ON u.k = t.v`},
	}
	check := func(stage string) {
		t.Helper()
		// Queries outer, engines inner: the joins build an index on t.v
		// lazily, so the filters and the lookup must run first on both
		// engines to be checked without one.
		for _, q := range queries {
			for _, engine := range []string{EngineVector, EngineRow} {
				if err := db.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				res := mustExec(t, db, q.sql, nil)
				if got := res.Set.Rows[0][0].Int(); got != 1 {
					t.Errorf("%s, %s, %s: got %d, want 1", stage, engine, q.name, got)
				}
			}
		}
	}
	check("before CREATE INDEX")
	mustExec(t, db, `CREATE INDEX tv ON t (v)`, nil)
	mustExec(t, db, `CREATE INDEX uk ON u (k)`, nil)
	check("after CREATE INDEX")
}
