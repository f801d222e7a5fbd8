package main

import (
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// smallDataset loads a small stencil sweep into a cache-off database.
func smallDataset(t *testing.T) (*model.Graph, *sqldb.DB, *model.TestRun) {
	t.Helper()
	ds, err := apprentice.Simulate(apprentice.Stencil(), apprentice.PartitionSweep(2, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.SetResultCacheSize(0)
	if err := sqlgen.CreateSchema(g.World, engineExec(db)); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, engineExec(db)); err != nil {
		t.Fatal(err)
	}
	runs := ds.Versions[0].Runs
	return g, db, runs[len(runs)-1]
}

// TestCorruptedReportFails proves the oracle checks are not vacuous: a
// correct SQL report passes against the object interpreter, every kind of
// corruption fails, and a failed check is counted in the run's result.
func TestCorruptedReportFails(t *testing.T) {
	g, db, run := smallDataset(t)
	oracle, err := core.New(g, core.WithWorkers(1)).AnalyzeObject(run)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *core.Report {
		rep, err := core.New(g, core.WithWorkers(1)).AnalyzeSQL(run, godbc.Embedded{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if len(oracle.Instances) < 2 {
		t.Fatalf("oracle has %d instances; the corruptions need two", len(oracle.Instances))
	}
	if err := sameReport(oracle, fresh()); err != nil {
		t.Fatalf("correct report rejected: %v", err)
	}
	corruptions := map[string]func(r *core.Report){
		"severity":   func(r *core.Report) { r.Instances[0].Severity *= 1 + 1e-6 },
		"confidence": func(r *core.Report) { r.Instances[1].Confidence += 0.01 },
		"context":    func(r *core.Report) { r.Instances[0].Context += "x" },
		"property":   func(r *core.Report) { r.Instances[1].Property = "SyncCost2" },
		"ranking":    func(r *core.Report) { r.Instances[0], r.Instances[1] = r.Instances[1], r.Instances[0] },
		"missing":    func(r *core.Report) { r.Instances = r.Instances[1:] },
		"diagnostic": func(r *core.Report) { r.Diagnostics = append(r.Diagnostics, r.Instances[0]) },
	}
	for name, corrupt := range corruptions {
		rep := fresh()
		corrupt(rep)
		err := sameReport(oracle, rep)
		if err == nil {
			t.Errorf("%s: corrupted report accepted", name)
			continue
		}
		var tl tally
		tl.record(nil)
		tl.record(err)
		res := newResult()
		res.finish(&tl, false)
		if res.Correct || res.Failed != 1 || res.Attempted != 2 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
	}

	ref := fresh().Render()
	if err := sameRender(ref, fresh().Render()); err != nil {
		t.Fatalf("identical rendering rejected: %v", err)
	}
	bad := strings.Replace(ref, "0", "1", 1)
	if bad == ref {
		t.Fatal("rendering has no digit to corrupt")
	}
	if err := sameRender(ref, bad); err == nil {
		t.Error("corrupted rendering accepted")
	}
	if err := sameRender(ref, ref[:len(ref)-1]); err == nil {
		t.Error("truncated rendering accepted")
	}
}
