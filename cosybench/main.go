// Command cosybench is the repository's end-to-end benchmark. It sets up a
// COSY database from a seed, drives the analyzer through the program's public
// packages from one process, checks every analysis it times against an
// oracle, and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and the metrics.
//
//	cosybench --workload cold-local|service-hot --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs an
// untraced and a traced phase and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/godbc"
	"repro/internal/sqldb"
)

// config is what a workload is run with.
type config struct {
	seed    int64
	measure time.Duration // the measured time of the run
	trace   bool
	log     io.Writer
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(config) (*result, error){
	"cold-local":  coldLocal,
	"service-hot": serviceHot,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cosybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-local or service-hot")
	seed := fs.Int64("seed", 1, "seed of the simulated dataset and the arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "cosybench: need --workload cold-local|service-hot, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// The benchmark's contract is at most two threads doing work.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, err := w(config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "cosybench: %s: %v\n", *name, err)
		return 1
	}
	res.print(stdout, stderr)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// endToEndUnits and perLayerUnits name every metric a run reports, with its
// unit: an untraced run reports exactly the first set, a traced run exactly
// the second. BENCHMARK.json lists the same metrics.
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"analysis_p50_ms":       "ms",
	"analysis_p95_ms":       "ms",
	"analyses_per_s":        "1/s",
	"max_rate_per_s":        "1/s",
	"alloc_kb_per_analysis": "KiB",
}

var perLayerUnits = map[string]string{
	"apprentice.simulate_s":             "s",
	"model.build_s":                     "s",
	"sqlgen.load_s":                     "s",
	"core.self_ms":                      "ms",
	"core.prepares_per_analysis":        "count",
	"core.exec_calls_per_analysis":      "count",
	"core.bindings_per_call":            "count",
	"sqldb.exec_ms":                     "ms",
	"sqldb.batch_execs_per_analysis":    "count",
	"sqldb.batch_bindings_per_analysis": "count",
	"sqldb.vec_selects_per_analysis":    "count",
	"sqldb.vec_fallbacks":               "count",
	"sqldb.plan_cache_hit_ratio":        "ratio",
	"sqldb.result_cache_hit_ratio":      "ratio",
	"godbc.exec_ms":                     "ms",
	"godbc.checkout_wait_p95_ms":        "ms",
	"wire.requests_per_analysis":        "count",
	"wire.vendor_ms_per_analysis":       "ms",
	"service.queue_wait_p95_ms":         "ms",
	"service.server_latency_p50_ms":     "ms",
	"service.protocol_ms":               "ms",
	"bench.late_p95_ms":                 "ms",
	"bench.trace_overhead_pct":          "%",
	"bench.failed_frac":                 "ratio",
}

// set reports a metric under its unit from the tables above.
func (r *result) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		r.problem(fmt.Errorf("metric %s is not defined", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem(fmt.Errorf("metric %s is %v", name, v))
		v = math.MaxFloat64
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed correctness check that is not a request.
func (r *result) problem(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// tally counts the checked operations of a run. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     error
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

// finish copies the tally into the result, completes the metric set of the
// mode and decides correctness.
func (r *result) finish(t *tally, traced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Attempted, r.Failed = t.attempted, t.failed
	if t.first != nil {
		r.problem(fmt.Errorf("%d of %d operations failed, first: %v", t.failed, t.attempted, t.first))
	}
	if t.attempted == 0 {
		r.problem(fmt.Errorf("no operation was attempted"))
	}
	want := endToEndUnits
	if traced {
		// Layers the workload does not run through read 0.
		r.set("bench.failed_frac", ratio(float64(t.failed), float64(t.attempted)))
		for name := range perLayerUnits {
			if _, ok := r.Metrics[name]; !ok {
				r.set(name, 0)
			}
		}
		want = perLayerUnits
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			r.problem(fmt.Errorf("metric %s reported in the wrong mode", name))
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			r.problem(fmt.Errorf("metric %s not reported", name))
		}
	}
	r.Correct = len(r.problems) == 0
}

func (r *result) print(stdout, stderr io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "%-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(stderr, "failed_frac %.6g (%d of %d)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "INCORRECT: %s\n", p)
	}
	out, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite (see set)
	}
	fmt.Fprintln(stdout, string(out))
}

// latencyLimit is the p95 latency a request rate must meet to count as
// sustained.
const latencyLimit = 200 * time.Millisecond

// engineDelta is the change of the engine's counters over a phase.
type engineDelta struct {
	batchExecs, batchBindings, vecSelects, vecFallbacks int64
	planHits, planMisses                                int64
	resultHits, resultMisses                            int64
}

func deltaOf(before, after sqldb.Stats) engineDelta {
	return engineDelta{
		batchExecs:    after.BatchExecs - before.BatchExecs,
		batchBindings: after.BatchBindings - before.BatchBindings,
		vecSelects:    after.VecSelects - before.VecSelects,
		vecFallbacks:  after.VecFallbacks - before.VecFallbacks,
		planHits:      after.PlanCacheHits - before.PlanCacheHits,
		planMisses:    after.PlanCacheMisses - before.PlanCacheMisses,
		resultHits:    after.ResultCacheHits - before.ResultCacheHits,
		resultMisses:  after.ResultCacheMisses - before.ResultCacheMisses,
	}
}

func (a engineDelta) plus(b engineDelta) engineDelta {
	return engineDelta{
		batchExecs:    a.batchExecs + b.batchExecs,
		batchBindings: a.batchBindings + b.batchBindings,
		vecSelects:    a.vecSelects + b.vecSelects,
		vecFallbacks:  a.vecFallbacks + b.vecFallbacks,
		planHits:      a.planHits + b.planHits,
		planMisses:    a.planMisses + b.planMisses,
		resultHits:    a.resultHits + b.resultHits,
		resultMisses:  a.resultMisses + b.resultMisses,
	}
}

// segments is how many time slices a measured phase is cut into. The host's
// speed drifts in episodes of seconds to minutes, so each end-to-end timing
// is the median over the slices of the slice's value: an episode that covers
// one or two slices does not move it.
const segments = 5

// segment is one time slice of a measured phase.
type segment struct {
	lat []float64 // analysis latency, ms; +Inf for a failed analysis
	// done analyses completed in elapsed give the slice's throughput.
	done    int
	elapsed time.Duration
}

// phase is what one measured phase of a workload observed.
type phase struct {
	analyses int
	lat      []float64 // every segment's analysis latencies
	segs     []segment
	alloc    uint64 // bytes allocated by the process during the phase
	engine   engineDelta
}

func (p *phase) add(s segment) {
	p.segs = append(p.segs, s)
	p.lat = append(p.lat, s.lat...)
}

// summary is the median over a phase's segments of each timing.
type summary struct {
	p50, p95, perSecond float64
}

func (p *phase) summary() summary {
	over := func(f func(s segment) float64) float64 {
		vals := make([]float64, len(p.segs))
		for i, s := range p.segs {
			vals[i] = f(s)
		}
		return median(vals)
	}
	return summary{
		p50:       over(func(s segment) float64 { return quantile(s.lat, 0.5) }),
		p95:       over(func(s segment) float64 { return quantile(s.lat, 0.95) }),
		perSecond: over(func(s segment) float64 { return float64(s.done) / s.elapsed.Seconds() }),
	}
}

// observe runs fn as (a stretch of) a phase: it adds the bytes the process
// allocated and the engine counter deltas to p.
func observe(db *sqldb.DB, p *phase, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s0 := db.Stats()
	fn()
	s1 := db.Stats()
	runtime.ReadMemStats(&m1)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.engine = p.engine.plus(deltaOf(s0, s1))
}

// samePath checks that the traced phase drove the engine exactly as the
// untraced one: equal per-analysis deltas of the batch and vector counters.
func samePath(untraced, traced *phase) error {
	u, t := untraced.engine, traced.engine
	nu, nt := int64(untraced.analyses), int64(traced.analyses)
	if nu == 0 || nt == 0 {
		return fmt.Errorf("engine path: a phase completed no analysis")
	}
	pairs := []struct {
		name string
		u, t int64
	}{
		{"BatchExecs", u.batchExecs, t.batchExecs},
		{"BatchBindings", u.batchBindings, t.batchBindings},
		{"VecSelects", u.vecSelects, t.vecSelects},
	}
	for _, p := range pairs {
		if p.u*nt != p.t*nu {
			return fmt.Errorf("engine path: %s per analysis %d/%d untraced, %d/%d traced", p.name, p.u, nu, p.t, nt)
		}
	}
	return nil
}

// setSetup reports the set-up metrics, setup_s untraced and its parts traced,
// and checks that the parts explain setup_s.
func (r *result) setSetup(cfg config, s setupSummary) {
	r.problem(s.partsErr())
	if !cfg.trace {
		r.set("setup_s", s.total)
		return
	}
	r.set("apprentice.simulate_s", s.simulate)
	r.set("model.build_s", s.build)
	r.set("sqlgen.load_s", s.load)
}

// setEndToEnd reports the latency, throughput and allocation metrics shared
// by every workload.
func (r *result) setEndToEnd(p *phase, s summary, maxRate float64) {
	r.set("analysis_p50_ms", s.p50)
	r.set("analysis_p95_ms", s.p95)
	r.set("analyses_per_s", s.perSecond)
	r.set("max_rate_per_s", maxRate)
	r.set("alloc_kb_per_analysis", ratio(float64(p.alloc)/1024, float64(p.analyses)))
}

// setEngineLayer reports the sqldb counter deltas of the traced phase, per
// analysis.
func (r *result) setEngineLayer(p *phase, fallbacks int64) {
	e, n := p.engine, float64(p.analyses)
	r.set("sqldb.batch_execs_per_analysis", ratio(float64(e.batchExecs), n))
	r.set("sqldb.batch_bindings_per_analysis", ratio(float64(e.batchBindings), n))
	r.set("sqldb.vec_selects_per_analysis", ratio(float64(e.vecSelects), n))
	r.set("sqldb.vec_fallbacks", float64(fallbacks))
	r.set("sqldb.plan_cache_hit_ratio", ratio(float64(e.planHits), float64(e.planHits+e.planMisses)))
	r.set("sqldb.result_cache_hit_ratio", ratio(float64(e.resultHits), float64(e.resultHits+e.resultMisses)))
}

// setCoreLayer reports what the traced executor saw below core. analysisNanos
// is the summed wall time of the traced phase's analyses.
func (r *result) setCoreLayer(p *phase, c *layerClock, analysisNanos int64) {
	n := float64(p.analyses)
	calls := float64(c.calls.Load())
	r.set("core.self_ms", ratio(ms(time.Duration(analysisNanos-c.nanos.Load())), n))
	r.set("core.prepares_per_analysis", ratio(float64(c.prepares.Load()), n))
	r.set("core.exec_calls_per_analysis", ratio(calls, n))
	r.set("core.bindings_per_call", ratio(float64(c.bindings.Load()), calls))
	r.problem(c.Err())
}

// setWire reports the wire server's counters between two ServerStats
// requests, per analysis. The second request counts itself. The fast profile
// charges no vendor delay, so any reading is a broken premise: a simulated
// sleep would hide in the timings.
func (r *result) setWire(before, after godbc.ServerStats, analyses float64) {
	r.set("wire.requests_per_analysis", float64(after.Requests-before.Requests-1)/analyses)
	r.set("wire.vendor_ms_per_analysis", ms(time.Duration(after.VendorNanos-before.VendorNanos))/analyses)
	if after.VendorNanos != before.VendorNanos {
		r.problem(fmt.Errorf("the fast profile charged %v of vendor delay", time.Duration(after.VendorNanos-before.VendorNanos)))
	}
}

// setTraceOverhead reports how much slower the traced phase's median
// analysis was than the untraced one's, in percent.
func (r *result) setTraceOverhead(untraced, traced *phase) {
	u := quantile(untraced.lat, 0.5)
	r.set("bench.trace_overhead_pct", 100*(quantile(traced.lat, 0.5)-u)/u)
}
