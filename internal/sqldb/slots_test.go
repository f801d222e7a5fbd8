package sqldb

import (
	"reflect"
	"strings"
	"testing"
)

// batchMatchesRow runs the bindings as one prepared batch on each engine and
// requires every binding's outcome to equal a single row-engine execution of
// it: the same rows, or the same error text. It returns the vector engine's
// batch results.
func batchMatchesRow(t *testing.T, db *DB, sql string, bindings []*Params) []BatchResult {
	t.Helper()
	db.SetResultCacheSize(0)
	if err := db.SetEngine(EngineRow); err != nil {
		t.Fatal(err)
	}
	want := make([]BatchResult, len(bindings))
	for i, p := range bindings {
		want[i].Res, want[i].Err = db.Exec(sql, p)
	}
	var vec []BatchResult
	for _, engine := range []string{EngineRow, EngineVector} {
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.ExecuteBatch(bindings)
		ps.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			g, w := got[i], want[i]
			if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
				t.Fatalf("%s binding %d: err %v, row engine err %v", engine, i, g.Err, w.Err)
			}
			if g.Err == nil && !reflect.DeepEqual(g.Res.Set, w.Res.Set) {
				t.Fatalf("%s binding %d: rows %v, row engine rows %v", engine, i, g.Res.Set.Rows, w.Res.Set.Rows)
			}
		}
		vec = got
	}
	return vec
}

func lohi(lo, hi int64) *Params {
	return &Params{Named: map[string]Value{"lo": NewInt(lo), "hi": NewInt(hi)}}
}

// wantValue checks a one-row, one-column batch result.
func wantValue(t *testing.T, r BatchResult, want Value) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("unexpected error %v", r.Err)
	}
	if rows := r.Res.Set.Rows; len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != want {
		t.Fatalf("rows %v, want [[%v]]", rows, want)
	}
}

func wantError(t *testing.T, r BatchResult, text string) {
	t.Helper()
	if r.Err == nil || !strings.Contains(r.Err.Error(), text) {
		t.Fatalf("err %v, want one containing %q", r.Err, text)
	}
}

// TestBatchScalarSubqueryCardinality covers a parameter-only scalar subquery
// returning 0, 1 and 2+ rows across the bindings of one batch. Its value lives
// in a plan slot, so a later binding must recompute it rather than see the
// slot an earlier binding (or one that failed) left behind.
func TestBatchScalarSubqueryCardinality(t *testing.T) {
	db := batchDB(t)
	res := batchMatchesRow(t, db, `SELECT (SELECT v FROM t WHERE id >= $lo AND id < $hi)`, []*Params{
		lohi(1, 2), lohi(5, 5), lohi(0, 3), lohi(2, 3), lohi(1, 2),
	})
	wantValue(t, res[0], NewFloat(1.5))
	wantValue(t, res[1], Null)
	wantError(t, res[2], "scalar subquery returned 3 rows")
	wantValue(t, res[3], NewFloat(3))
	wantValue(t, res[4], NewFloat(1.5))
}

// TestBatchScalarSinkEvaluatesEveryRow pins the scalar sink's error parity:
// the projection still runs over every row, so a failure on a later row wins
// over the cardinality error, as it does on the row engine.
func TestBatchScalarSinkEvaluatesEveryRow(t *testing.T) {
	db := batchDB(t)
	res := batchMatchesRow(t, db, `SELECT (SELECT 10 / (id - $hi) FROM t WHERE id >= $lo)`, []*Params{
		lohi(4, 9), lohi(9, 10), lohi(9, 9),
	})
	wantError(t, res[0], "division by zero")
	wantValue(t, res[1], NewFloat(-10))
	wantError(t, res[2], "division by zero")
}

// TestBatchExistsSlot covers an invariant EXISTS cached in a plan slot,
// including a binding that fails for want of its parameter.
func TestBatchExistsSlot(t *testing.T) {
	db := batchDB(t)
	tag := func(s string) *Params { return &Params{Named: map[string]Value{"tag": NewText(s)}} }
	res := batchMatchesRow(t, db, `SELECT EXISTS (SELECT id FROM t WHERE tag = $tag)`, []*Params{
		tag("tag1"), tag("none"), {}, tag("tag2"), tag("none"),
	})
	wantValue(t, res[0], NewBool(true))
	wantValue(t, res[1], NewBool(false))
	wantError(t, res[2], "missing named parameter $tag")
	wantValue(t, res[3], NewBool(true))
	wantValue(t, res[4], NewBool(false))
}

// TestBatchSlotsClearedAfterError runs two subqueries per binding. In the
// middle binding the first stores its slot and the second fails; the binding
// after it must recompute the first rather than reuse that slot.
func TestBatchSlotsClearedAfterError(t *testing.T) {
	db := batchDB(t)
	res := batchMatchesRow(t, db, `SELECT (SELECT v FROM t WHERE id = $hi), (SELECT v FROM t WHERE id >= $lo)`, []*Params{
		lohi(9, 1), lohi(0, 2), lohi(9, 1),
	})
	wantError(t, res[1], "scalar subquery returned 10 rows")
	if rows := res[2].Res.Set.Rows; rows[0][0] != NewFloat(1.5) {
		t.Fatalf("third binding sees %v, want 1.5", rows[0][0])
	}
}

// TestSubquerySlotsShareText checks that textually equal subqueries share
// one slot and distinct ones get their own, densely numbered.
func TestSubquerySlotsShareText(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare(`SELECT (SELECT v FROM t WHERE id = $hi) + (SELECT v FROM t WHERE id = $hi), EXISTS (SELECT id FROM t WHERE id = $lo)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	p := ps.plan.Load()
	if p.nSlots != 2 || len(p.slots) != 3 {
		t.Fatalf("%d slots for %d subquery nodes, want 2 for 3", p.nSlots, len(p.slots))
	}
	for e, s := range p.slots {
		if s < 0 || s >= p.nSlots {
			t.Fatalf("subquery %s has slot %d outside [0,%d)", FormatExpr(e), s, p.nSlots)
		}
	}
}
