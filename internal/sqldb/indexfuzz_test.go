package sqldb

// FuzzIndexMatchesScan checks the typed column indexes against an oracle that
// shares none of their code: two tables with the same rows, of which only ix
// is indexed on the probed column c, while sc has no index at all (no primary
// key either). Every equality probe — a filter seeded by the index and a
// correlated point lookup — must return the same rows from both tables, on
// both engines, after every insert, UPDATE and DELETE. Fuzz bytes choose
// the column type, the values (NULL, small and huge integers, integral and
// fractional floats, text, bool) and the interleaving, so indexes are
// built, grown below their base, converted from the dense to the map form,
// and rebuilt.
//
// Probes of another class than the column (text against an INTEGER column,
// say) are checked too: `=` raises on them, so the indexed table must seed
// by scan and raise the same error. Outcomes compare error texts as well as
// rows. NaN is left out: the engine never produces it, and Compare calls it
// equal to every number.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// indexValue draws one value for the index fuzzer, biased towards the
// classes whose keys the index treats specially.
func (r *paramReader) indexValue() Value {
	switch r.byte() % 9 {
	case 0:
		return Null
	case 1, 2:
		return NewInt(int64(int8(r.byte()))) // a compact range: the dense form
	case 3:
		return NewInt(int64(r.uint64()))
	case 4:
		d := int64(int8(r.byte()))
		if d&1 == 0 {
			return NewInt(maxExactInt + d) // both sides of 2^53
		}
		return NewInt(-maxExactInt - d)
	case 5:
		f := float64(int8(r.byte())) / 2 // integral and half-integral
		if f == 0 && r.byte()%2 == 1 {
			f = math.Copysign(0, -1)
		}
		return NewFloat(f)
	case 6:
		f := math.Float64frombits(r.uint64())
		if math.IsNaN(f) {
			f = math.Inf(1)
		}
		return NewFloat(f)
	case 7:
		return NewText(string("ab"[:r.byte()%3]))
	default:
		return NewBool(r.byte()%2 == 1)
	}
}

// errText is an error's text with the table's name masked, so the indexed
// and the scanned table's errors compare equal.
func errText(err error, tab string) string {
	return strings.ReplaceAll(err.Error(), "table "+tab, "table %s")
}

func FuzzIndexMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &paramReader{data: data}
		typ := []ColType{TInt, TFloat, TText, TBool}[r.byte()%4]
		db := NewDB()
		db.SetResultCacheSize(0)
		for _, q := range []string{
			fmt.Sprintf(`CREATE TABLE ix (id INTEGER PRIMARY KEY, c %s)`, typ),
			fmt.Sprintf(`CREATE TABLE sc (id INTEGER, c %s)`, typ),
			`CREATE TABLE pr (id INTEGER PRIMARY KEY, ki INTEGER, kf REAL, kt TEXT, kb BOOLEAN)`,
			`CREATE INDEX ixc ON ix (c)`,
		} {
			if _, err := db.Exec(q, nil); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}

		// dml runs one statement on both tables and requires the same
		// outcome: the same error presence and the same affected count.
		dml := func(format string, args ...Value) {
			t.Helper()
			var got [2]string
			for i, tab := range []string{"ix", "sc"} {
				res, err := db.Exec(fmt.Sprintf(format, tab), &Params{Positional: args})
				if err != nil {
					got[i] = errText(err, tab)
				} else {
					got[i] = fmt.Sprint(res.Affected)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("%s %v: indexed %s, scanned %s", format, args, got[0], got[1])
			}
		}
		nextID := int64(1)
		insert := func(v Value) {
			dml(`INSERT INTO %s (id, c) VALUES (?, ?)`, NewInt(nextID), v)
			nextID++
		}
		for n := r.byte() % 24; n > 0; n-- {
			insert(r.indexValue())
		}

		// Probe keys: parameters, and the rows of pr for the correlated
		// lookups (each key in the column of its class).
		var probes []Value
		for n := 1 + r.byte()%6; n > 0; n-- {
			v := r.indexValue()
			probes = append(probes, v)
			row := []Value{NewInt(int64(len(probes))), Null, Null, Null, Null}
			switch {
			case v.IsInt():
				row[1] = v
			case v.IsNumeric():
				row[2] = v
			case v.IsText():
				row[3] = v
			case v.IsBool():
				row[4] = v
			}
			if _, err := db.Exec(`INSERT INTO pr (id, ki, kf, kt, kb) VALUES (?, ?, ?, ?, ?)`, &Params{Positional: row}); err != nil {
				t.Fatal(err)
			}
		}
		keyCols := []string{"ki", "kf", "kt", "kb"}

		// same runs one query against both tables on both engines and
		// requires one outcome from all four runs.
		same := func(stage, format string, params *Params) {
			t.Helper()
			var want string
			var wantRows []Row
			for _, engine := range []string{EngineVector, EngineRow} {
				if err := db.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				for _, tab := range []string{"ix", "sc"} {
					res, err := db.Exec(fmt.Sprintf(format, tab), params)
					got, rows := "rows", []Row(nil)
					if err != nil {
						got = "error: " + errText(err, tab)
					} else {
						rows = res.Set.Rows
					}
					if want == "" {
						want, wantRows = got, rows
						continue
					}
					if got != want || !reflect.DeepEqual(rows, wantRows) {
						t.Fatalf("%s: %s on %s (%s): %s %v, want %s %v",
							stage, format, tab, engine, got, rows, want, wantRows)
					}
				}
			}
		}
		check := func(stage string) {
			t.Helper()
			for _, p := range probes {
				same(stage, `SELECT id FROM %s WHERE c = ?`, &Params{Positional: []Value{p}})
			}
			for _, k := range keyCols {
				same(stage, `SELECT p.id, (SELECT s.id FROM %s s WHERE s.c = p.`+k+`) FROM pr p`, nil)
				same(stage, `SELECT p.id, (SELECT COUNT(*) FROM %s s WHERE s.c = p.`+k+`) FROM pr p`, nil)
			}
		}

		check("after the inserts")
		for n := r.byte() % 8; n > 0; n-- {
			// The DML engine too is fuzz-chosen: the columnar and the row
			// UPDATE/DELETE paths each rebuild the indexes.
			if err := db.SetEngine([]string{EngineVector, EngineRow}[r.byte()%2]); err != nil {
				t.Fatal(err)
			}
			id := NewInt(int64(r.byte()) % nextID)
			switch r.byte() % 5 {
			case 0:
				dml(`UPDATE %s SET c = ? WHERE id = ?`, r.indexValue(), id)
			case 1:
				dml(`UPDATE %s SET c = ? WHERE id %% 3 = ?`, r.indexValue(), NewInt(int64(r.byte()%3)))
			case 2:
				dml(`DELETE FROM %s WHERE id = ?`, id)
			case 3:
				dml(`DELETE FROM %s WHERE id %% 4 = ?`, NewInt(int64(r.byte()%4)))
			default:
				insert(r.indexValue())
			}
			check(fmt.Sprintf("after DML step %d", n))
		}

		for col, ix := range db.Table("sc").indexes {
			if ix != nil {
				t.Fatalf("the scan oracle built an index on column %d", col)
			}
		}
	})
}
