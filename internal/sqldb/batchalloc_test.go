package sqldb_test

import (
	"testing"

	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestBatchPropertyAllocs pins the allocation budget of a batched canonical
// property: UnmeasuredCost over 32 region bindings. Its dozen scalar
// subqueries live in plan slots shared by the batch and drain into the
// scalar sink, so what a binding allocates is its own result and the
// pipeline's fixed per-execution costs, not a subquery cache or output rows
// per subquery.
func TestBatchPropertyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled contexts at random")
	}
	db := diffDB(t)
	if err := db.SetEngine(sqldb.EngineVector); err != nil {
		t.Fatal(err)
	}
	compiled, errs := sqlgen.CompileAll(model.MustCompileSpec())
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	ps, err := db.Prepare(compiled["UnmeasuredCost"].SQL)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ids := func(sql string) []sqldb.Value {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []sqldb.Value
		for _, r := range res.Set.Rows {
			out = append(out, r[0])
		}
		return out
	}
	regions := ids(`SELECT id FROM Region ORDER BY id`)
	run := ids(`SELECT id FROM TestRun ORDER BY id`)[0]
	basis := ids(`SELECT id FROM Region WHERE Kind = 'program'`)[0]
	bindings := make([]*sqldb.Params, 32)
	for i := range bindings {
		bindings[i] = &sqldb.Params{Named: map[string]sqldb.Value{
			"r": regions[i%len(regions)], "t": run, "Basis": basis,
		}}
	}
	check := func() {
		res, err := ps.ExecuteBatch(bindings)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil || len(r.Res.Set.Rows) != 1 {
				t.Fatalf("binding %d: %v", i, r.Err)
			}
		}
	}
	check() // warm the pools and the lazily built join indexes
	// About 24 allocations per binding remain (its Result, ResultSet and
	// row, index-probe keys, grouped finalization); a per-binding subquery
	// cache and per-subquery output rows put the count near 60.
	const perBinding = 30
	allocs := testing.AllocsPerRun(20, check)
	if budget := float64(perBinding * len(bindings)); allocs > budget {
		t.Fatalf("batch of %d allocates %.0f per run, want <= %.0f", len(bindings), allocs, budget)
	}
}
