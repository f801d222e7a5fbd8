package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sqldb/wire"
)

// The resident service under test: capacity 2, one evaluation
// worker per analysis, batches of 32, two tenants, and a pool of two
// connections to the database server.
const (
	serviceCapacity = 2
	serviceTenants  = 2
	serviceBatch    = 32
	fixedRate       = 20.0 // requests per second of the fixed-rate phase
	requestTimeout  = 30 * time.Second
)

// The ladder starts at ladderStart times the probed throughput, near where
// the latency limit is met, and climbs or descends from there for at most
// maxRungs rungs; while nothing has passed it descends further, down to the
// fixed rate. No rung may exceed maxLadderRate.
const (
	ladderStart   = 0.8
	maxRungs      = 3
	maxLadderRate = 1000.0
)

// Shares of the measured time on service-hot: the fixed-rate phase, the
// closed-loop capacity probe after it, and each rung of the ladder after that.
const (
	fixedShare = 0.6
	probeShare = 0.1
	rungShare  = 0.1
)

// serviceStack is one phase's client side of service-hot: a pool to the
// database server, the service over it, the service's listener and one
// client connection per tenant.
type serviceStack struct {
	pool    *godbc.Pool
	svc     *service.Service
	srv     *service.Server
	clients []*service.Client
	ref     string // the reference rendering every reply must match
	t       *tally
}

func newServiceStack(g *model.Graph, addr, ref string, t *tally, clock *layerClock) (*serviceStack, error) {
	pool, err := godbc.NewPool(addr, serviceCapacity)
	if err != nil {
		return nil, err
	}
	s := &serviceStack{pool: pool, ref: ref, t: t}
	var q core.QueryExec = pool
	if clock != nil {
		if q, err = traced(pool, clock); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.svc = service.New(g, q, service.Config{Capacity: serviceCapacity, Workers: 1, BatchSize: serviceBatch})
	s.srv = service.NewServer(s.svc, nil)
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		s.Close()
		return nil, err
	}
	for i := 0; i < serviceTenants; i++ {
		c, err := service.Dial(s.srv.Addr())
		if err != nil {
			s.Close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	// Warm-up: every pooled connection prepares its statements, and the
	// first analysis fills the result cache.
	for round := 0; round < 2; round++ {
		for tenant := range s.clients {
			if err := s.analyze(tenant); err != nil {
				s.Close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// analyze asks the service for the largest run's report as the tenant and
// checks the reply against the reference.
func (s *serviceStack) analyze(tenant int) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	rep, err := s.clients[tenant].Analyze(ctx, "tenant-"+strconv.Itoa(tenant), 0)
	if err == nil {
		err = sameRender(s.ref, rep)
	}
	return err
}

// checked is analyze, counted in the run's tally.
func (s *serviceStack) checked(tenant int) error {
	err := s.analyze(tenant)
	s.t.record(err)
	return err
}

func (s *serviceStack) Close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.pool.Close()
}

// tenantsSnapshot merges the service's per-tenant histograms.
func (s *serviceStack) tenantsSnapshot() (queueWait, latency metrics.HistogramSnapshot) {
	var qw, lat []metrics.HistogramSnapshot
	for _, ts := range s.svc.MetricsSnapshot().Tenants {
		qw = append(qw, ts.QueueWait)
		lat = append(lat, ts.Latency)
	}
	return metrics.Merge(qw...), metrics.Merge(lat...)
}

// serviceHot is the resident daemon's steady state: seeded Poisson arrivals
// from two tenants at a fixed rate into an in-process service.Server over a
// godbc.Pool on a wire.Server with the fast profile and the result cache on,
// every request for the largest run. The working set fits the result cache,
// so the engine does little: the work is admission, the service protocol,
// the driver, the wire codec and TCP, and core. After the fixed-rate phase a
// closed-loop probe measures the saturated throughput and a ladder of fixed
// rates finds the highest one sustained.
func serviceHot(cfg config) (*result, error) {
	d, setup, err := setUp(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.setSetup(cfg, setup)
	// The reference is a direct analysis, itself checked against the object
	// interpreter.
	refRep, err := core.New(d.g, core.WithWorkers(1), core.WithBatchSize(serviceBatch)).AnalyzeSQL(d.largest, godbc.Embedded{DB: d.db})
	if err != nil {
		return nil, err
	}
	oracle, err := core.New(d.g, core.WithWorkers(1)).AnalyzeObject(d.largest)
	if err != nil {
		return nil, err
	}
	res.problem(sameReport(oracle, refRep))
	ref := refRep.Render()

	wsrv, err := wire.NewServer(d.db, wire.ProfileFast, nil)
	if err != nil {
		return nil, err
	}
	if err := wsrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer wsrv.Close()

	var t tally
	start := d.db.Stats()
	seeds := rand.New(rand.NewSource(cfg.seed))
	// fixed runs the fixed-rate phase for dur as one Poisson stream, counted
	// in p and cut into segments by due time.
	fixed := func(s *serviceStack, p *phase, dur time.Duration) openResult {
		var or openResult
		schedule := poissonSchedule(seeds.Int63(), fixedRate, dur, serviceTenants)
		observe(d.db, p, func() { or = openLoop(schedule, s.checked) })
		p.analyses += len(or.lat)
		for _, seg := range slices(schedule, or.lat, dur, segments) {
			p.add(segment{lat: seg})
		}
		return or
	}

	if !cfg.trace {
		s, err := newServiceStack(d.g, wsrv.Addr(), ref, &t, nil)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		p := &phase{}
		fixed(s, p, time.Duration(fixedShare*float64(cfg.measure)))
		sum := p.summary()
		sum.perSecond = probe(s, time.Duration(probeShare*float64(cfg.measure)))
		rungDur := time.Duration(rungShare * float64(cfg.measure))
		base := poissonSchedule(seeds.Int63(), 1, time.Duration(maxLadderRate*float64(rungDur)), serviceTenants)
		maxRate, rungs := ladder(ladderStart*sum.perSecond, fixedRate, maxRungs, func(rate float64) rung {
			schedule := rescale(base, min(rate, maxLadderRate), rungDur)
			or := openLoop(schedule, s.checked)
			// Like analysis_p95_ms, the median over time slices, so that a
			// brief stall of the host does not fail a rate by itself.
			var p95s []float64
			for _, lat := range slices(schedule, or.lat, rungDur, segments) {
				p95s = append(p95s, quantile(lat, 0.95))
			}
			p95 := median(p95s)
			return rung{rate: rate, p95: p95, backlog: or.backlog, pass: sustains(rate, p95, or.backlog, serviceCapacity)}
		})
		for _, r := range rungs {
			fmt.Fprintf(cfg.log, "ladder: %.2f/s p95 %.1f ms backlog %d pass %t\n", r.rate, r.p95, r.backlog, r.pass)
		}
		res.setEndToEnd(p, sum, maxRate)
		res.finish(&t, false)
		return res, nil
	}

	s, err := newServiceStack(d.g, wsrv.Addr(), ref, &t, nil)
	if err != nil {
		return nil, err
	}
	untraced := &phase{}
	fixed(s, untraced, cfg.measure/2)
	s.Close()
	clock := &layerClock{}
	s, err = newServiceStack(d.g, wsrv.Addr(), ref, &t, clock)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	w0, _, err := s.pool.ServerStats()
	if err != nil {
		return nil, err
	}
	clock.reset()
	qw0, lat0 := s.tenantsSnapshot()
	cw0 := s.pool.Metrics().CheckoutWait
	tp := &phase{}
	or := fixed(s, tp, cfg.measure/2)
	cw1 := s.pool.Metrics().CheckoutWait
	qw1, lat1 := s.tenantsSnapshot()
	w1, _, err := s.pool.ServerStats()
	if err != nil {
		return nil, err
	}
	qw, lat := histogramSince(qw0, qw1), histogramSince(lat0, lat1)
	n := float64(tp.analyses)
	// Server-side analysis time: the service's latency minus its queue wait.
	analysisNanos := lat.SumNanos - qw.SumNanos
	res.problem(samePath(untraced, tp))
	res.setCoreLayer(tp, clock, analysisNanos)
	res.setEngineLayer(tp, deltaOf(start, d.db.Stats()).vecFallbacks)
	res.set("godbc.exec_ms", ms(time.Duration(clock.nanos.Load()))/n)
	res.set("godbc.checkout_wait_p95_ms", ms(histogramSince(cw0, cw1).Quantile(0.95)))
	res.setWire(w0, w1, n)
	res.set("service.queue_wait_p95_ms", ms(qw.Quantile(0.95)))
	res.set("service.server_latency_p50_ms", ms(lat.Quantile(0.5)))
	res.set("service.protocol_ms", mean(or.sendLat)-ms(lat.Mean()))
	res.set("bench.late_p95_ms", quantile(or.late, 0.95))
	res.setTraceOverhead(untraced, tp)
	res.finish(&t, true)
	return res, nil
}

// histogramSince returns the observations after has and before has not.
func histogramSince(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{
		Count:       after.Count - before.Count,
		SumNanos:    after.SumNanos - before.SumNanos,
		MaxNanos:    after.MaxNanos,
		BoundsNanos: after.BoundsNanos,
		Counts:      append([]int64(nil), after.Counts...),
	}
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

// probe runs one closed loop per tenant for dur and returns the service's
// saturated throughput: the median over segments time slices of the slice's
// completions per second, measured from its first to its last completion.
func probe(s *serviceStack, dur time.Duration) float64 {
	var mu sync.Mutex
	var done []time.Duration // completion times from the start, in order
	var wg sync.WaitGroup
	t0 := time.Now()
	for tenant := range s.clients {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for time.Since(t0) < dur {
				if s.checked(tenant) == nil {
					mu.Lock()
					done = append(done, time.Since(t0))
					mu.Unlock()
				}
			}
		}(tenant)
	}
	wg.Wait()
	// rate is the completions per second from the first to the last of ts.
	rate := func(ts []time.Duration) float64 {
		if len(ts) < 2 {
			return math.NaN()
		}
		return float64(len(ts)-1) / (ts[len(ts)-1] - ts[0]).Seconds()
	}
	bySlice := make([][]time.Duration, segments)
	for _, at := range done {
		if at < dur {
			i := at * segments / dur
			bySlice[i] = append(bySlice[i], at)
		}
	}
	var rates []float64
	for _, ts := range bySlice {
		if len(ts) < 10 {
			// A probe too short to slice: a rate over a few completions
			// overstates it when two land close together.
			return rate(done)
		}
		rates = append(rates, rate(ts))
	}
	return median(rates)
}
