// Differential fuzzing of the two SELECT execution engines: any query the
// parser accepts must produce the same outcome on the vectorized engine and
// the row interpreter — the same ResultSet when both succeed, and an error on
// both when either fails. The seed corpus is the full canonical property set
// (the queries the analyzer actually runs) plus handcrafted shapes covering
// joins, grouping, subqueries, and three-valued logic over NULLs.
package sqldb_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// diffState is the shared database the fuzzer queries: the canonical COSY
// schema loaded with a small simulated history, plus an auxiliary table whose
// rows carry NULLs in every column type. Built once per process — the fuzz
// body only ever executes SELECTs against it.
var diffState struct {
	sync.Once
	db  *sqldb.DB
	err error
}

func diffDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	s := &diffState
	s.Do(func() {
		db := sqldb.NewDB()
		// Cache off: a cached result would be replayed to the second engine
		// and hide any divergence.
		db.SetResultCacheSize(0)
		exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
			res, err := db.Exec(q, p)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		})
		// A deliberately small history: fuzz mutants routinely degrade equi-
		// joins into cartesian products, so worst-case cost must stay bounded.
		ds, err := apprentice.Simulate(apprentice.Stencil(), apprentice.PartitionSweep(2, 4), 42)
		if err != nil {
			s.err = err
			return
		}
		g, err := model.Build(ds)
		if err != nil {
			s.err = err
			return
		}
		if err := sqlgen.CreateSchema(g.World, exec); err != nil {
			s.err = err
			return
		}
		if _, err := sqlgen.Load(g.Store, exec); err != nil {
			s.err = err
			return
		}
		for _, q := range []string{
			`CREATE TABLE fuzz_aux (id INTEGER PRIMARY KEY, v INTEGER, w REAL, s TEXT, b BOOLEAN)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (1, 10, 1.5, 'alpha', TRUE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (2, NULL, 2.5, 'beta', FALSE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (3, 30, NULL, NULL, TRUE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (4, 10, 4.0, 'alpha', NULL)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (5, NULL, NULL, 'gamma', NULL)`,
		} {
			if _, err := db.Exec(q, nil); err != nil {
				s.err = err
				return
			}
		}
		s.db = db
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.db
}

// bindParams builds actual parameters for a query from three fuzz-controlled
// integers: every distinct $name marker in the text gets one of the values in
// scan order, and positional markers draw from the same pool. Over-binding is
// harmless; under-binding errors identically on both engines.
func bindParams(sql string, p1, p2, p3 int64) *sqldb.Params {
	vals := []int64{p1, p2, p3}
	params := &sqldb.Params{Positional: []sqldb.Value{
		sqldb.NewInt(p1), sqldb.NewInt(p2), sqldb.NewInt(p3),
	}}
	next := 0
	for i := 0; i < len(sql); i++ {
		if sql[i] != '$' {
			continue
		}
		j := i + 1
		for j < len(sql) && (isIdentByte(sql[j])) {
			j++
		}
		if j == i+1 {
			continue
		}
		name := sql[i+1 : j]
		if params.Named == nil {
			params.Named = make(map[string]sqldb.Value)
		}
		if _, ok := params.Named[name]; !ok {
			params.Named[name] = sqldb.NewInt(vals[next%len(vals)])
			next++
		}
		i = j - 1
	}
	return params
}

func isIdentByte(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// FuzzEngineDifferential cross-checks the engines on arbitrary SELECT text.
// Non-SELECT statements are skipped (the database is shared across
// executions), as is text the parser rejects — the parse happens before
// engine dispatch, so rejection cannot diverge.
func FuzzEngineDifferential(f *testing.F) {
	w := model.MustCompileSpec()
	compiled, errs := sqlgen.CompileAll(w)
	if len(errs) > 0 {
		f.Fatalf("canonical properties failed to compile: %v", errs)
	}
	names := make([]string, 0, len(compiled))
	for name := range compiled {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(compiled[name].SQL, int64(1), int64(2), int64(3))
	}
	for _, sql := range []string{
		`SELECT v, COUNT(id), SUM(w) FROM fuzz_aux GROUP BY v ORDER BY v`,
		`SELECT a.id, b.s FROM fuzz_aux a JOIN fuzz_aux b ON a.v = b.v ORDER BY a.id, b.id`,
		`SELECT s FROM fuzz_aux WHERE v > ? OR w IS NULL ORDER BY id LIMIT 3`,
		`SELECT id FROM fuzz_aux x WHERE EXISTS (SELECT id FROM fuzz_aux y WHERE y.v = x.v AND y.id <> x.id)`,
		`SELECT id, (SELECT MAX(w) FROM fuzz_aux y WHERE y.v = x.v) FROM fuzz_aux x ORDER BY id`,
		`SELECT COUNT(id) FROM fuzz_aux WHERE b AND s IN ('alpha', 'gamma')`,
		`SELECT v, AVG(w) FROM fuzz_aux GROUP BY v HAVING COUNT(id) > 1`,
		`SELECT MIN(v), MAX(w), COUNT(s) FROM fuzz_aux WHERE id <> $k`,
	} {
		f.Add(sql, int64(10), int64(2), int64(30))
	}

	f.Fuzz(func(t *testing.T, sql string, p1, p2, p3 int64) {
		stmt, err := sqldb.ParseSQL(sql)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sqldb.SelectStmt); !ok {
			return
		}
		db := diffDB(t)
		params := bindParams(sql, p1, p2, p3)
		run := func(engine string, params *sqldb.Params) (*sqldb.ResultSet, error) {
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(sql, params)
			if err != nil {
				return nil, err
			}
			return res.Set, nil
		}
		vecSet, vecErr := run(sqldb.EngineVector, params)
		rowSet, rowErr := run(sqldb.EngineRow, params)
		if (vecErr == nil) != (rowErr == nil) {
			t.Fatalf("engine divergence on %q: vector err=%v, row err=%v", sql, vecErr, rowErr)
		}
		if vecErr == nil && !reflect.DeepEqual(vecSet, rowSet) {
			t.Fatalf("engine divergence on %q:\nvector: %+v\nrow:    %+v", sql, vecSet, rowSet)
		}
		checkBatchLeg(t, db, sql, run, []*sqldb.Params{
			params,
			{}, // binds no marker: errors whenever the query has one
			bindParams(sql, p3, p1, p2),
			params, // repeated after the others: no slot may go stale
		})
	})
}

// checkBatchLeg runs the bindings as one prepared batch on each engine and
// requires every binding's outcome to match a single execution of it: the
// same rows as the row engine, and the same rows or error text as a single
// execution on the batch's own engine. One execution context serves the
// whole batch, so this covers subquery slots reused across bindings.
func checkBatchLeg(t *testing.T, db *sqldb.DB, sql string, run func(string, *sqldb.Params) (*sqldb.ResultSet, error), bindings []*sqldb.Params) {
	t.Helper()
	type outcome struct {
		set *sqldb.ResultSet
		err error
	}
	single := func(engine string) []outcome {
		out := make([]outcome, len(bindings))
		for i, p := range bindings {
			out[i].set, out[i].err = run(engine, p)
		}
		return out
	}
	rowWant := single(sqldb.EngineRow)
	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		want := single(engine)
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		ps, err := db.Prepare(sql)
		if err != nil {
			return // unplannable text runs only on the dynamic path
		}
		got, err := ps.ExecuteBatch(bindings)
		ps.Close()
		if err != nil {
			t.Fatalf("%s batch of %q failed as a whole: %v", engine, sql, err)
		}
		for i, r := range got {
			var gotErr string
			if r.Err != nil {
				gotErr = r.Err.Error()
			}
			var wantErr string
			if want[i].err != nil {
				wantErr = want[i].err.Error()
			}
			if gotErr != wantErr || (r.Err == nil) != (rowWant[i].err == nil) {
				t.Fatalf("%s batch binding %d of %q: err=%v, single %s err=%v, row err=%v", engine, i, sql, r.Err, engine, want[i].err, rowWant[i].err)
			}
			if r.Err == nil && !reflect.DeepEqual(r.Res.Set, rowWant[i].set) {
				t.Fatalf("%s batch binding %d of %q:\nbatch: %+v\nrow:   %+v", engine, i, sql, r.Res.Set, rowWant[i].set)
			}
		}
	}
}
