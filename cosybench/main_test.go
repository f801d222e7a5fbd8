package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly in both modes and checks the result
// line: correct, nothing failed, and exactly the metrics of the mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in both modes")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				want := endToEndUnits
				if trace == "1" {
					want = perLayerUnits
				}
				for name, m := range res.Metrics {
					if want[name] != m.Unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, want[name])
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						// A slow host (or the race detector) can miss the
						// latency limit at every rate.
						if m.Value <= 0 && !(name == "max_rate_per_s" && m.Value == 0) {
							t.Errorf("end-to-end metric %s is %v", name, m.Value)
						}
					}
					return
				}
				for _, name := range []string{"sqldb.vec_fallbacks", "wire.vendor_ms_per_analysis"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v, want 0", name, v)
					}
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-local", "--trace", "2"},
		{"--workload", "cold-local", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	units := func(es []entry) map[string]string {
		m := make(map[string]string)
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	if u := units(spec.EndToEnd); !reflect.DeepEqual(u, endToEndUnits) {
		t.Errorf("end_to_end %v, want %v", u, endToEndUnits)
	}
	if u := units(spec.PerLayer); !reflect.DeepEqual(u, perLayerUnits) {
		t.Errorf("per_layer %v, want %v", u, perLayerUnits)
	}
	for _, e := range spec.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

// TestQuantile pins the estimator to Python's
// statistics.quantiles(method="inclusive").
func TestQuantile(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2.5}, {0.5, 4}, {0.75, 5.5}, {1, 7}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSummaryMedianOfSegments checks that one slow segment does not move the
// reported timings, which are medians over the segments.
func TestSummaryMedianOfSegments(t *testing.T) {
	p := &phase{}
	for i := 0; i < segments; i++ {
		lat := []float64{10, 20, 30, 40, 50}
		if i == 2 {
			lat = []float64{100, 200, 300, 400, 500}
		}
		p.add(segment{lat: lat, done: 5, elapsed: time.Second})
	}
	s := p.summary()
	if s.p50 != 30 || s.p95 != 48 || s.perSecond != 5 {
		t.Errorf("summary %+v", s)
	}
	if len(p.lat) != 5*segments {
		t.Errorf("%d pooled latencies", len(p.lat))
	}
}

// TestSetupPartsMustExplainTotal checks the 5% rule between setup_s and the
// sum of its parts.
func TestSetupPartsMustExplainTotal(t *testing.T) {
	for _, c := range []struct {
		s  setupSummary
		ok bool
	}{
		{setupSummary{total: 2.5, simulate: 2.3, build: 0.05, load: 0.1}, true},
		{setupSummary{total: 2.5, simulate: 2.0, build: 0.05, load: 0.1}, false}, // 0.35 s unexplained
		{setupSummary{total: 2.5, simulate: 2.5, build: 0.1, load: 0.1}, false},  // parts overlap
		{setupSummary{}, false},
	} {
		if err := c.s.partsErr(); (err == nil) != c.ok {
			t.Errorf("%+v: partsErr() = %v", c.s, err)
		}
	}
}
