package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	const rate, dur = 20.0, 30 * time.Second
	a := poissonSchedule(5, rate, dur, 2)
	if b := poissonSchedule(5, rate, dur, 2); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(6, rate, dur, 2); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// 600 arrivals are expected; six standard deviations is ±147.
	if n := len(a); n < 453 || n > 747 {
		t.Errorf("%d arrivals at %v/s over %v", n, rate, dur)
	}
	tenants := make([]int, 2)
	for i, x := range a {
		if x.at < 0 || x.at >= dur || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v out of order or range", i, x.at)
		}
		tenants[x.tenant]++
	}
	if tenants[0] == 0 || tenants[1] == 0 {
		t.Errorf("tenant counts %v", tenants)
	}
}

func TestSustains(t *testing.T) {
	limit := ms(latencyLimit)
	cases := []struct {
		rate, p95 float64
		backlog   int
		want      bool
	}{
		{30, limit, 8, true},          // ceil(30*0.2)+2 = 8
		{30, limit, 9, false},         // backlog grew
		{30, limit + 0.001, 0, false}, // too slow
		{30, math.Inf(1), 0, false},   // a failed request misses the limit
		{12.5, 10, 5, true},           // ceil(2.5)+2 = 5
		{12.5, 10, 6, false},
	}
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			if got := sustains(c.rate, c.p95, c.backlog, 2); got != c.want {
				t.Errorf("sustains(%v, %v, %d) = %t, want %t", c.rate, c.p95, c.backlog, got, c.want)
			}
		}
	}
}

func TestLadderDeterministic(t *testing.T) {
	try := func(capacity float64) func(float64) rung {
		return func(rate float64) rung { return rung{rate: rate, pass: rate <= capacity} }
	}
	rates := func(rs []rung) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.rate)
		}
		return out
	}
	up := 20 * 1.1 * 1.1
	for _, c := range []struct {
		name              string
		start, floor, cap float64
		maxRungs          int
		best              float64
		rungs             int
	}{
		// 20, 22 and 24.2 pass, 26.62 fails, the mean of 24.2 and 26.62 fails.
		{"climbs, then halves the bracket", 20, 0, 25, 10, up, 5},
		// As above, but the mean passes.
		{"climbs, then passes in the bracket", 20, 0, 25.5, 10, 20 * 1.1 * 1.1 * math.Sqrt(1.1), 5},
		// 30 and 27.27 fail, 24.79 passes, their mean 26.0 fails.
		{"descends, then halves the bracket", 30, 0, 25, 10, 30 / 1.1 / 1.1, 4},
		{"stops at maxRungs going up", 20, 0, 100, 3, up, 3},
		{"stops at maxRungs before the mean", 20, 0, 23, 3, 22, 3},
		// 30, 27.27, 24.79 and 22.54 fail; 20.49 passes above the floor, and
		// with maxRungs spent the mean is not tried.
		{"descends past maxRungs to the floor", 30, 20, 21, 3, 30 / 1.1 / 1.1 / 1.1 / 1.1, 5},
		// ... and 18.63 is below the floor, so nothing passes.
		{"finds nothing above the floor", 30, 20, 1, 3, 0, 5},
	} {
		best, rs := ladder(c.start, c.floor, c.maxRungs, try(c.cap))
		best2, rs2 := ladder(c.start, c.floor, c.maxRungs, try(c.cap))
		if best != best2 || !reflect.DeepEqual(rs, rs2) {
			t.Errorf("%s: two walks differ", c.name)
		}
		if math.Abs(best-c.best) > 1e-9 || len(rs) != c.rungs {
			t.Errorf("%s: best %v over rungs %v, want %v over %d", c.name, best, rates(rs), c.best, c.rungs)
		}
		for i := 1; i < len(rs); i++ {
			a, b := rs[i-1].rate, rs[i].rate
			if step := math.Max(a, b)/math.Min(a, b) - 1; step > 0.1+1e-12 {
				t.Errorf("%s: step %v between rungs exceeds 10%%", c.name, step)
			}
		}
	}
}

func TestSlicesByDueTime(t *testing.T) {
	schedule := []arrival{{at: 0}, {at: 900 * time.Millisecond}, {at: 1000 * time.Millisecond}, {at: 2999 * time.Millisecond}}
	lat := []float64{1, 2, 3, 4}
	if got, want := slices(schedule, lat, 3*time.Second, 3), [][]float64{{1, 2}, {3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("three slices: %v, want %v", got, want)
	}
	// The last second has no arrival, so its slice is dropped.
	if got, want := slices(schedule, lat, 4*time.Second, 4), [][]float64{{1, 2}, {3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("four slices: %v, want %v", got, want)
	}
}
