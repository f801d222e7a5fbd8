package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// sweepPEs are the partition sizes of the simulated tuning history: six runs
// of the same program, analyzed as one database.
var sweepPEs = []int{2, 4, 8, 16, 32, 64}

// setupReps is how often a run repeats the set-up; setup_s and its parts
// report the median over the repetitions.
const setupReps = 3

// setupParts times one set-up by the layer that does the work.
type setupParts struct {
	simulate time.Duration // apprentice.Simulate
	build    time.Duration // model.Build
	load     time.Duration // new sqldb.DB, sqlgen.CreateSchema and sqlgen.Load
}

// dataset is the loaded state every workload runs on.
type dataset struct {
	g       *model.Graph
	db      *sqldb.DB
	runs    []*model.TestRun
	largest *model.TestRun
}

// engineExec adapts the in-process database to the loader interface.
func engineExec(db *sqldb.DB) sqlgen.ExecutorFunc {
	return func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
}

// loadOnce simulates ScaledStencil(15,16) over sweepPEs with the seed,
// materializes it, and loads it into a fresh vector-engine database whose
// result cache is on or off.
func loadOnce(seed int64, resultCache bool) (*dataset, setupParts, error) {
	var p setupParts
	t0 := time.Now()
	ds, err := apprentice.Simulate(apprentice.ScaledStencil(15, 16), apprentice.PartitionSweep(sweepPEs...), seed)
	if err != nil {
		return nil, p, fmt.Errorf("simulate: %w", err)
	}
	t1 := time.Now()
	g, err := model.Build(ds)
	if err != nil {
		return nil, p, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	db := sqldb.NewDB()
	if err := db.SetEngine(sqldb.EngineVector); err != nil {
		return nil, p, err
	}
	if !resultCache {
		db.SetResultCacheSize(0)
	}
	if err := sqlgen.CreateSchema(g.World, engineExec(db)); err != nil {
		return nil, p, fmt.Errorf("schema: %w", err)
	}
	if _, err := sqlgen.Load(g.Store, engineExec(db)); err != nil {
		return nil, p, fmt.Errorf("load: %w", err)
	}
	t3 := time.Now()
	p = setupParts{simulate: t1.Sub(t0), build: t2.Sub(t1), load: t3.Sub(t2)}
	runs := ds.Versions[0].Runs
	return &dataset{g: g, db: db, runs: runs, largest: runs[len(runs)-1]}, p, nil
}

// setupSummary holds the medians of the set-up repetitions, in seconds.
type setupSummary struct {
	total, simulate, build, load float64
}

// partsErr checks that the median parts add up to the median total within
// 5%: setup_s is timed around a whole repetition, so this fails when work
// outside the three layers grows into set-up.
func (s setupSummary) partsErr() error {
	sum := s.simulate + s.build + s.load
	if s.total <= 0 || sum < 0.95*s.total || sum > 1.05*s.total {
		return fmt.Errorf("set-up parts sum to %.4fs, setup_s is %.4fs", sum, s.total)
	}
	return nil
}

// setUp repeats the set-up setupReps times and keeps the last dataset. A
// repetition's total runs from before the collection of the previous
// repetition's dataset to the assembled new one.
func setUp(seed int64, resultCache bool) (*dataset, setupSummary, error) {
	var d *dataset
	var total, sim, build, load []float64
	for i := 0; i < setupReps; i++ {
		d = nil
		t0 := time.Now()
		runtime.GC() // the previous repetition's garbage is not left to this one's layers
		var p setupParts
		var err error
		if d, p, err = loadOnce(seed, resultCache); err != nil {
			return nil, setupSummary{}, err
		}
		total = append(total, time.Since(t0).Seconds())
		sim = append(sim, p.simulate.Seconds())
		build = append(build, p.build.Seconds())
		load = append(load, p.load.Seconds())
	}
	return d, setupSummary{total: median(total), simulate: median(sim), build: median(build), load: median(load)}, nil
}
