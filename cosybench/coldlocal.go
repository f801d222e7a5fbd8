package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/sqlast/build"
)

// coldLocal is a `cosy -engine sql` call on the analyst's own database: one
// client, back to back, each request a fresh analyzer running every property
// of the largest run through godbc.Embedded on a database whose result cache
// is off. The engine and core do almost all the work; no driver or wire code
// runs.
func coldLocal(cfg config) (*result, error) {
	d, setup, err := setUp(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.setSetup(cfg, setup)
	oracle, err := core.New(d.g, core.WithWorkers(1)).AnalyzeObject(d.largest)
	if err != nil {
		return nil, err
	}
	base := godbc.Embedded{DB: d.db}
	analyze := func(q core.QueryExec) (*core.Report, error) {
		a := core.New(d.g, core.WithWorkers(1), core.WithSQLDialect(build.Kojakdb.Name))
		return a.AnalyzeSQL(d.largest, q)
	}
	// Warm-up: the engine builds join indexes lazily on first use.
	if _, err := analyze(base); err != nil {
		return nil, err
	}
	var t tally
	start := d.db.Stats()
	loop := func(q core.QueryExec, dur time.Duration) (*phase, int64) {
		p := &phase{}
		var nanos int64
		observe(d.db, p, func() {
			for k := 0; k < segments; k++ {
				var seg segment
				start := time.Now()
				for deadline := start.Add(dur / segments); time.Now().Before(deadline); {
					t0 := time.Now()
					rep, err := analyze(q)
					lat := time.Since(t0)
					if err == nil {
						err = sameReport(oracle, rep)
					}
					t.record(err)
					p.analyses++
					nanos += int64(lat)
					if err != nil {
						seg.lat = append(seg.lat, math.Inf(1))
						continue
					}
					seg.lat = append(seg.lat, ms(lat))
					seg.done++
				}
				seg.elapsed = time.Since(start)
				p.add(seg)
			}
		})
		return p, nanos
	}

	if !cfg.trace {
		p, _ := loop(base, cfg.measure)
		s := p.summary()
		// A closed loop is never offered more than it completes, so the
		// highest rate it sustains is its own.
		res.setEndToEnd(p, s, s.perSecond)
		res.finish(&t, false)
		return res, nil
	}
	untraced, _ := loop(base, cfg.measure/2)
	clock := &layerClock{}
	q, err := traced(base, clock)
	if err != nil {
		return nil, err
	}
	tp, nanos := loop(q, cfg.measure/2)
	res.problem(samePath(untraced, tp))
	res.setCoreLayer(tp, clock, nanos)
	res.set("sqldb.exec_ms", ms(time.Duration(clock.nanos.Load()))/float64(tp.analyses))
	res.setEngineLayer(tp, deltaOf(start, d.db.Stats()).vecFallbacks)
	res.setTraceOverhead(untraced, tp)
	res.finish(&t, true)
	return res, nil
}
