package apprentice

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func simulate(t *testing.T, w *Workload, pes ...int) *model.Dataset {
	t.Helper()
	if len(pes) == 0 {
		pes = []int{2, 8, 32}
	}
	ds, err := Simulate(w, PartitionSweep(pes...), 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSimulateProducesValidDatasets(t *testing.T) {
	for name, w := range Library() {
		t.Run(name, func(t *testing.T) {
			ds := simulate(t, w)
			if err := ds.Validate(); err != nil {
				t.Fatal(err)
			}
			st := ds.Stats()
			if st.Runs != 3 || st.Regions == 0 || st.TotalTimings != st.Regions*3 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func summaryBytes(t *testing.T, ds *model.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminism re-simulates every library workload and requires the same
// summary bytes each time. Regions with three or more overhead classes sum
// their per-processor overheads in a fixed class order; in map order the
// float sums differed between runs, so each workload is simulated several
// times to give a reordering many chances to show.
func TestDeterminism(t *testing.T) {
	for name, w := range Library() {
		t.Run(name, func(t *testing.T) {
			want := summaryBytes(t, simulate(t, w))
			for i := 0; i < 8; i++ {
				if got := summaryBytes(t, simulate(t, w)); !bytes.Equal(got, want) {
					t.Fatalf("simulation %d: same seed must produce identical summaries", i+2)
				}
			}
			c, err := Simulate(w, PartitionSweep(2, 8, 32), 43)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(summaryBytes(t, c), want) {
				t.Fatal("different seeds must differ")
			}
		})
	}
}

func TestWorkConservation(t *testing.T) {
	// With zero noise and no overheads, the summed exclusive time of a
	// purely parallel region must be independent of the partition size.
	w := &Workload{
		Name: "conserve",
		Funcs: []*FuncSpec{{
			Name: "main",
			Regions: []*RegionSpec{{
				Name: "main", Kind: model.KindProgram,
				Children: []*RegionSpec{{
					Name: "par", Kind: model.KindLoop,
					ParallelWork: 10.0, Imbalance: 0.4,
				}},
			}},
		}},
	}
	ds := simulate(t, w, 2, 16, 64)
	v := ds.Versions[0]
	var par *model.Region
	for _, r := range v.AllRegions() {
		if r.Name == "par" {
			par = r
		}
	}
	for _, run := range v.Runs {
		tot := par.TotalFor(run)
		if math.Abs(tot.Excl-10.0) > 1e-9 {
			t.Errorf("NoPe=%d: summed exclusive %.12f, want 10 (imbalance ramp must conserve work)", run.NoPe, tot.Excl)
		}
	}
}

func TestBarrierWaitMatchesImbalance(t *testing.T) {
	w := &Workload{
		Name: "bar",
		Funcs: []*FuncSpec{{
			Name: "main",
			Regions: []*RegionSpec{{
				Name: "main", Kind: model.KindProgram,
				Children: []*RegionSpec{{
					Name: "work", Kind: model.KindLoop,
					ParallelWork: 8.0, Imbalance: 0.5, SyncAfter: true,
				}},
			}},
		}},
	}
	ds := simulate(t, w, 4)
	v := ds.Versions[0]
	run := v.Runs[0]
	var work *model.Region
	for _, r := range v.AllRegions() {
		if r.Name == "work" {
			work = r
		}
	}
	barrier := work.TypedFor(run, model.Barrier)
	if barrier == nil {
		t.Fatal("no barrier timing recorded")
	}
	// Work per PE = 2.0*(1 + 0.5*ramp); slowest has 3.0. Total wait =
	// sum(3.0 - w_p) = 4*3 - 8 = 4 (plus tiny base latency).
	if math.Abs(barrier.Time-4.0) > 0.01 {
		t.Fatalf("barrier wait %.4f, want ≈4.0", barrier.Time)
	}
	// The barrier call site records the extremal processors: the most
	// loaded PE (last under the ramp) waits least.
	fn := v.FunctionByName(model.BarrierFunction)
	if fn == nil || len(fn.Calls) == 0 {
		t.Fatal("no barrier call site")
	}
	ct := fn.Calls[0].Sums[0]
	if ct.PeMinTime != 3 || ct.PeMaxTime != 0 {
		t.Fatalf("extremal PEs: min@%d max@%d, want min@3 max@0", ct.PeMinTime, ct.PeMaxTime)
	}
}

func TestOverheadScaling(t *testing.T) {
	spec := OverheadSpec{PerPe: 1, Log2Pe: 2, LinearPe: 0.5}
	if got := spec.PerProcessor(1); got != 1.5 {
		t.Errorf("PerProcessor(1) = %g", got)
	}
	if got := spec.PerProcessor(8); got != 1+2*3+0.5*8 {
		t.Errorf("PerProcessor(8) = %g", got)
	}
	neg := OverheadSpec{PerPe: -5}
	if neg.PerProcessor(2) != 0 {
		t.Error("negative overhead must clamp to zero")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(Stencil(), nil, 1); err == nil {
		t.Fatal("no machines must fail")
	}
	if _, err := Simulate(Stencil(), []Machine{{NoPe: 0, ClockMHz: 450}}, 1); err == nil {
		t.Fatal("zero PEs must fail")
	}
	if _, err := Simulate(Stencil(), []Machine{{NoPe: 4, ClockMHz: 450}, {NoPe: 4, ClockMHz: 450}}, 1); err == nil {
		t.Fatal("duplicate partition sizes must fail")
	}
}

func TestClockspeedScaling(t *testing.T) {
	w := Amdahl()
	fast, err := Simulate(w, []Machine{{NoPe: 4, ClockMHz: 450}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Simulate(w, []Machine{{NoPe: 4, ClockMHz: 300}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr := fast.Versions[0].RootRegion().TotalFor(fast.Versions[0].Runs[0])
	sr := slow.Versions[0].RootRegion().TotalFor(slow.Versions[0].Runs[0])
	ratio := sr.Incl / fr.Incl
	if math.Abs(ratio-1.5) > 0.05 {
		t.Fatalf("300MHz/450MHz time ratio = %.3f, want ≈1.5", ratio)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	for name, w := range Library() {
		t.Run(name, func(t *testing.T) {
			ds := simulate(t, w)
			var buf bytes.Buffer
			if err := WriteSummary(&buf, ds); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSummary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// Write again: byte-identical means the round trip is lossless.
			var buf2 bytes.Buffer
			if err := WriteSummary(&buf2, got); err != nil {
				t.Fatal(err)
			}
			var buf3 bytes.Buffer
			if err := WriteSummary(&buf3, ds); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
				t.Fatal("summary round trip is lossy")
			}
			if !reflect.DeepEqual(ds.Stats(), got.Stats()) {
				t.Fatalf("stats differ: %+v vs %+v", ds.Stats(), got.Stats())
			}
		})
	}
}

func TestReadSummaryErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"badheader", "NOPE 1\nend\n"},
		{"truncated", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\n"},
		{"regionOutsideFunction", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nregion 0 - loop l\nend\n"},
		{"unknownParent", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nfunction f\nregion 0 7 loop l\nend\n"},
		{"badRunIndex", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nfunction f\nregion 0 - loop l\ntot 5 1 1 0\nend\n"},
		{"badTimingType", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nfunction f\nregion 0 - loop l\ntyp 0 Bogus 1\nend\n"},
		{"sumOutsideCall", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nsum 0 1 1 1 0 0 0 1 1 1 0 0 0\nend\n"},
		{"unknownCallee", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\ncall g - -1\nend\n"},
		{"unknownRecord", "APPRENTICE 1\nprogram x\nversion 0\nwhat 1 2\nend\n"},
		{"duplicateRegionID", "APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nfunction f\nregion 0 - loop a\nregion 0 - loop b\nend\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadSummary(strings.NewReader(c.src)); err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
		})
	}
}

func TestWriteSummaryRejectsMultiVersion(t *testing.T) {
	ds := simulate(t, Stencil())
	ds.Versions = append(ds.Versions, ds.Versions[0])
	var buf bytes.Buffer
	if err := WriteSummary(&buf, ds); err == nil {
		t.Fatal("multi-version summary must fail")
	}
}

func TestScaledStencilSize(t *testing.T) {
	small, err := Simulate(ScaledStencil(2, 2), PartitionSweep(2, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(ScaledStencil(8, 6), PartitionSweep(2, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats().Regions <= small.Stats().Regions*4 {
		t.Fatalf("scaling too weak: %d vs %d regions", big.Stats().Regions, small.Stats().Regions)
	}
}

func TestRampProperties(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 33} {
		sum := 0.0
		for pe := 0; pe < p; pe++ {
			r := ramp(pe, p)
			if r < -1-1e-12 || r > 1+1e-12 {
				t.Fatalf("ramp(%d,%d) = %g out of range", pe, p, r)
			}
			sum += r
		}
		if math.Abs(sum) > 1e-9 {
			t.Fatalf("ramp sum for p=%d is %g, want 0", p, sum)
		}
	}
}

func TestStatsHelper(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	min, max, mean, stdev, peMin, peMax := stats(vals)
	if min != 1 || max != 5 || mean != 2.8 {
		t.Fatalf("min=%g max=%g mean=%g", min, max, mean)
	}
	if peMin != 1 || peMax != 4 {
		t.Fatalf("peMin=%d peMax=%d", peMin, peMax)
	}
	if stdev <= 0 {
		t.Fatal("stdev must be positive")
	}
	if _, _, _, _, _, _ = stats(nil); false {
		t.Fatal("unreachable")
	}
}
