package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	at     time.Duration // due time, from the start of the schedule
	tenant int
}

// poissonSchedule returns the arrivals of a Poisson process of the given rate
// over dur, each from a tenant drawn uniformly. The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, arrival{at: time.Duration(t * float64(time.Second)), tenant: rng.Intn(tenants)})
	}
}

// rescale runs base, a unit-rate schedule, at rate and cuts it at dur. The
// rungs of a ladder share one base, so they differ only in rate and not in
// their pattern of bursts.
func rescale(base []arrival, rate float64, dur time.Duration) []arrival {
	var out []arrival
	for _, a := range base {
		at := time.Duration(float64(a.at) / rate)
		if at >= dur {
			break
		}
		out = append(out, arrival{at: at, tenant: a.tenant})
	}
	return out
}

// slices cuts the latencies of an open loop over schedule, which spans dur,
// into k slices of equal length by due time, and drops the empty ones.
func slices(schedule []arrival, lat []float64, dur time.Duration, k int) [][]float64 {
	all := make([][]float64, k)
	for i, a := range schedule {
		j := int(int64(a.at) * int64(k) / int64(dur))
		all[j] = append(all[j], lat[i])
	}
	var out [][]float64
	for _, s := range all {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// openResult is what an open-loop run observed.
type openResult struct {
	lat     []float64 // due to completion, ms; +Inf for a failed request
	sendLat []float64 // send to completion, ms, of the successful requests
	late    []float64 // how late each request was sent, ms
	// backlog is the number of requests outstanding when the last one was
	// sent.
	backlog int
}

// openLoop sends each arrival when it is due, without waiting for earlier
// requests, and waits for all of them. Latency counts from the due time, so
// a stalled generator charges its stall to the requests it delayed.
func openLoop(schedule []arrival, do func(tenant int) error) openResult {
	n := len(schedule)
	lat, sendLat, late := make([]float64, n), make([]float64, n), make([]float64, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		late[i] = ms(sent.Sub(due))
		outstanding.Add(1)
		wg.Add(1)
		go func(i, tenant int, due, sent time.Time) {
			defer wg.Done()
			err := do(tenant)
			done := time.Now()
			outstanding.Add(-1)
			if err != nil {
				lat[i], sendLat[i] = math.Inf(1), math.NaN()
				return
			}
			lat[i], sendLat[i] = ms(done.Sub(due)), ms(done.Sub(sent))
		}(i, a.tenant, due, sent)
	}
	res := openResult{lat: lat, late: late, backlog: int(outstanding.Load())}
	wg.Wait()
	for _, l := range sendLat {
		if !math.IsNaN(l) {
			res.sendLat = append(res.sendLat, l)
		}
	}
	return res
}

// rung is one fixed-rate step of the ladder.
type rung struct {
	rate    float64
	p95     float64 // ms
	backlog int
	pass    bool
}

// ladderStep is the ratio between neighbouring rungs' rates, minus one.
const ladderStep = 0.10

// sustains is the ladder's pass rule: a rate is sustained when its p95
// latency meets the limit and the backlog left when the last request was
// sent is no more than the requests of one latency limit at that rate plus
// the service's capacity, so no backlog grew.
func sustains(rate, p95 float64, backlog, capacity int) bool {
	return p95 <= ms(latencyLimit) && float64(backlog) <= math.Ceil(rate*latencyLimit.Seconds())+float64(capacity)
}

// ladder walks fixed rates from start: up by ladderStep while rungs pass, or
// down by it until one passes. Once a passing and a failing rate bracket the
// limit, it tries their geometric mean, which halves the bracket to under
// 5%, and stops. It tries at most maxRungs rungs, except that while no rung
// has passed it keeps descending down to floor. It returns the highest
// passing rate (0 if none passed) and the rungs tried.
func ladder(start, floor float64, maxRungs int, try func(rate float64) rung) (float64, []rung) {
	var rungs []rung
	best, fail := 0.0, math.Inf(1)
	for rate := start; len(rungs) < maxRungs || (best == 0 && rate >= floor); {
		r := try(rate)
		rungs = append(rungs, r)
		if r.pass {
			best = math.Max(best, rate)
		} else {
			fail = math.Min(fail, rate)
		}
		switch {
		case best > 0 && !math.IsInf(fail, 1):
			if fail/best < 1+ladderStep/2 {
				return best, rungs
			}
			rate = math.Sqrt(best * fail)
		case r.pass:
			rate *= 1 + ladderStep
		default:
			rate /= 1 + ladderStep
		}
	}
	return best, rungs
}
