// Package apprentice is the stand-in for the Cray T3E and the MPP
// Apprentice performance tool of the paper: a deterministic simulator that
// executes analytically-specified parallel workloads on a machine model and
// emits exactly the summary records COSY stores — per-region exclusive,
// inclusive, and overhead times, the 25 typed overheads, and per-call-site
// min/max/mean/stddev statistics across processors with the extremal
// processors memorized.
//
// The simulator is the substitution documented in DESIGN.md: COSY only ever
// consumes Apprentice summary data, so a generator that produces the same
// record shapes with controllable bottleneck structure exercises every
// analysis path of the paper.
package apprentice

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/model"
)

// Machine describes the simulated MPP partition.
type Machine struct {
	NoPe     int // number of processing elements
	ClockMHz int // 300 or 450 on the T3E family
}

// OverheadSpec describes how one typed overhead of a region scales with the
// partition size. For a run on P processors, each processor spends
//
//	PerPe + Log2Pe*log2(P) + LinearPe*P
//
// seconds in this overhead class: PerPe models fixed per-process cost,
// Log2Pe tree-structured collectives, and LinearPe all-to-all patterns.
type OverheadSpec struct {
	PerPe    float64
	Log2Pe   float64
	LinearPe float64
}

// PerProcessor evaluates the overhead one processor of a partition of p
// incurs.
func (o OverheadSpec) PerProcessor(p int) float64 {
	v := o.PerPe
	if o.Log2Pe != 0 && p > 1 {
		v += o.Log2Pe * math.Log2(float64(p))
	}
	v += o.LinearPe * float64(p)
	if v < 0 {
		return 0
	}
	return v
}

// CallSpec describes a call site placed in a region.
type CallSpec struct {
	// Callee names the called function (created on demand).
	Callee string
	// CallsPerPe is the number of calls each processor issues.
	CallsPerPe float64
	// TimePerCall is the time spent per call, per processor.
	TimePerCall float64
	// Imbalance skews per-processor call time with a deterministic ramp
	// (0 balanced, 0.5 = ±50%).
	Imbalance float64
}

// RegionSpec is the analytic behaviour of one program region.
type RegionSpec struct {
	Name string
	Kind model.RegionKind
	// SerialWork is replicated on every processor (the Amdahl term).
	SerialWork float64
	// ParallelWork is divided across the partition.
	ParallelWork float64
	// Imbalance skews the parallel share with a deterministic ramp.
	Imbalance float64
	// SyncAfter places a barrier at region exit: every processor waits for
	// the slowest, producing Barrier overhead and a call site of the
	// "barrier" routine whose per-processor times reflect the waiting.
	SyncAfter bool
	// Overheads are the typed overheads charged inside this region.
	Overheads map[model.TimingType]OverheadSpec
	// Calls are the call sites textually inside this region.
	Calls    []CallSpec
	Children []*RegionSpec
}

// FuncSpec is one source function with its top-level regions.
type FuncSpec struct {
	Name    string
	Regions []*RegionSpec
}

// Workload is a complete synthetic application.
type Workload struct {
	Name string
	// Noise adds deterministic pseudo-random per-processor jitter as a
	// fraction of computed times (e.g. 0.01 = ±1%), so that statistics are
	// non-degenerate even for balanced codes.
	Noise float64
	Funcs []*FuncSpec
}

// BarrierFunction is the name of the synthetic barrier routine; the paper's
// LoadImbalance property is evaluated only for calls to it.
const BarrierFunction = model.BarrierFunction

// Simulate runs the workload on each machine configuration and assembles
// the COSY dataset: one program version with one test run per machine.
func Simulate(w *Workload, machines []Machine, seed int64) (*model.Dataset, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("apprentice: no machine configurations")
	}
	seen := make(map[int]bool)
	for _, m := range machines {
		if m.NoPe <= 0 {
			return nil, fmt.Errorf("apprentice: machine with %d PEs", m.NoPe)
		}
		if seen[m.NoPe] {
			return nil, fmt.Errorf("apprentice: duplicate partition size %d (COSY needs a unique minimal-PE run)", m.NoPe)
		}
		seen[m.NoPe] = true
	}

	version := &model.Version{
		Compilation: time.Date(1999, 12, 17, 10, 0, 0, 0, time.UTC),
		Code:        fmt.Sprintf("! synthetic Fortran source of %s\n", w.Name),
	}
	ds := &model.Dataset{Program: w.Name, Versions: []*model.Version{version}}

	for i, m := range machines {
		version.Runs = append(version.Runs, &model.TestRun{
			Start:      time.Date(1999, 12, 17, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
			NoPe:       m.NoPe,
			Clockspeed: m.ClockMHz,
		})
	}

	sim := &simulator{workload: w, version: version, seed: seed, funcs: make(map[string]*model.Function)}
	for _, fs := range w.Funcs {
		sim.fn(fs.Name)
	}
	for _, fs := range w.Funcs {
		f := sim.fn(fs.Name)
		for _, rs := range fs.Regions {
			region, err := sim.buildRegion(f, rs, nil)
			if err != nil {
				return nil, err
			}
			f.Regions = append(f.Regions, region)
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("apprentice: generated dataset invalid: %w", err)
	}
	return ds, nil
}

type simulator struct {
	workload *Workload
	version  *model.Version
	seed     int64
	funcs    map[string]*model.Function
}

// fn returns (creating on demand) the named function.
func (s *simulator) fn(name string) *model.Function {
	if f, ok := s.funcs[name]; ok {
		return f
	}
	f := &model.Function{Name: name}
	s.funcs[name] = f
	s.version.Functions = append(s.version.Functions, f)
	return f
}

// noise returns a deterministic jitter factor in [1-n, 1+n] keyed by the
// identifiers, so re-simulation is bit-identical.
func (s *simulator) noise(key string, pe int) float64 {
	n := s.workload.Noise
	if n <= 0 {
		return 1
	}
	h := int64(1469598103934665603)
	for _, b := range []byte(key) {
		h = (h ^ int64(b)) * 1099511628211
	}
	rng := rand.New(rand.NewSource(s.seed ^ h ^ int64(pe)*2654435761))
	return 1 + n*(2*rng.Float64()-1)
}

// ramp is the deterministic imbalance pattern: a linear skew over the
// partition summing to zero, so total work is conserved.
func ramp(pe, p int) float64 {
	if p <= 1 {
		return 0
	}
	return (2*float64(pe) - float64(p-1)) / float64(p-1)
}

// buildRegion simulates one region for every run and returns its model node
// (children included).
func (s *simulator) buildRegion(owner *model.Function, rs *RegionSpec, parent *model.Region) (*model.Region, error) {
	r := &model.Region{Name: rs.Name, Kind: rs.Kind, Parent: parent}
	for _, cs := range rs.Children {
		child, err := s.buildRegion(owner, cs, r)
		if err != nil {
			return nil, err
		}
		r.Children = append(r.Children, child)
	}

	// Typed overheads are charged in TimingType order: each processor's
	// overhead is a float sum over the classes, so map order would change
	// its bits from run to run.
	ovTypes := make([]model.TimingType, 0, len(rs.Overheads))
	for tt := range rs.Overheads {
		ovTypes = append(ovTypes, tt)
	}
	sort.Slice(ovTypes, func(i, j int) bool { return ovTypes[i] < ovTypes[j] })

	for _, run := range s.version.Runs {
		p := run.NoPe
		clockScale := 450.0 / float64(run.Clockspeed) // 450 MHz = 1.0, 300 MHz = 1.5

		// Per-processor compute time.
		compute := make([]float64, p)
		for pe := 0; pe < p; pe++ {
			work := rs.SerialWork + rs.ParallelWork/float64(p)*(1+rs.Imbalance*ramp(pe, p))
			compute[pe] = work * clockScale * s.noise(rs.Name+"/w", pe)
		}

		// Typed overheads.
		typed := make(map[model.TimingType]float64)
		overheadPerPe := make([]float64, p)
		for _, tt := range ovTypes {
			spec := rs.Overheads[tt]
			for pe := 0; pe < p; pe++ {
				v := spec.PerProcessor(p) * s.noise(rs.Name+"/"+tt.String(), pe)
				typed[tt] += v
				overheadPerPe[pe] += v
			}
		}

		// Barrier at region exit: everyone waits for the slowest processor.
		var barrierWait []float64
		if rs.SyncAfter && p > 1 {
			slowest := 0.0
			for pe := 0; pe < p; pe++ {
				if t := compute[pe]; t > slowest {
					slowest = t
				}
			}
			barrierWait = make([]float64, p)
			base := 2e-6 * math.Log2(float64(p)) // hardware barrier latency
			for pe := 0; pe < p; pe++ {
				barrierWait[pe] = slowest - compute[pe] + base
				typed[model.Barrier] += barrierWait[pe]
				overheadPerPe[pe] += barrierWait[pe]
			}
		}

		// Summed-over-processes region times.
		excl, ovhd := 0.0, 0.0
		for pe := 0; pe < p; pe++ {
			excl += compute[pe] + overheadPerPe[pe]
			ovhd += overheadPerPe[pe]
		}
		incl := excl
		for _, child := range r.Children {
			ct := child.TotalFor(run)
			if ct != nil {
				incl += ct.Incl
			}
		}
		r.TotTimes = append(r.TotTimes, &model.TotalTiming{Run: run, Excl: excl, Incl: incl, Ovhd: ovhd})

		types := make([]model.TimingType, 0, len(typed))
		for tt := range typed {
			types = append(types, tt)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, tt := range types {
			if typed[tt] > 0 {
				r.TypTimes = append(r.TypTimes, &model.TypedTiming{Run: run, Type: tt, Time: typed[tt]})
			}
		}

		// Explicit call sites.
		for ci := range rs.Calls {
			s.recordCall(owner, r, &rs.Calls[ci], run, ci)
		}
		// The implicit barrier call site.
		if rs.SyncAfter && p > 1 && barrierWait != nil {
			counts := make([]float64, p)
			for pe := range counts {
				counts[pe] = 1
			}
			s.recordCallStats(BarrierFunction, owner, r, run, counts, barrierWait)
		}
	}
	return r, nil
}

// recordCall simulates one explicit call site for one run.
func (s *simulator) recordCall(owner *model.Function, r *model.Region, cs *CallSpec, run *model.TestRun, idx int) {
	p := run.NoPe
	counts := make([]float64, p)
	times := make([]float64, p)
	for pe := 0; pe < p; pe++ {
		key := fmt.Sprintf("%s/call%d", r.Name, idx)
		counts[pe] = cs.CallsPerPe * s.noise(key+"/n", pe)
		times[pe] = counts[pe] * cs.TimePerCall * (1 + cs.Imbalance*ramp(pe, p)) * s.noise(key+"/t", pe)
	}
	s.recordCallStats(cs.Callee, owner, r, run, counts, times)
}

// recordCallStats folds per-processor counts and times into the CallTiming
// statistics of the (callee, caller, region) call site, creating it on
// first use.
func (s *simulator) recordCallStats(callee string, caller *model.Function, r *model.Region, run *model.TestRun, counts, times []float64) {
	calleeFn := s.fn(callee)
	var site *model.FunctionCall
	for _, c := range calleeFn.Calls {
		if c.Caller == caller && c.CallingReg == r {
			site = c
			break
		}
	}
	if site == nil {
		site = &model.FunctionCall{Callee: callee, Caller: caller, CallingReg: r}
		calleeFn.Calls = append(calleeFn.Calls, site)
	}
	ct := &model.CallTiming{Run: run}
	ct.MinCalls, ct.MaxCalls, ct.MeanCalls, ct.StdevCalls, ct.PeMinCalls, ct.PeMaxCalls = stats(counts)
	ct.MinTime, ct.MaxTime, ct.MeanTime, ct.StdevTime, ct.PeMinTime, ct.PeMaxTime = stats(times)
	site.Sums = append(site.Sums, ct)
}

// stats returns min, max, mean, stddev and the processors attaining the
// extrema.
func stats(xs []float64) (min, max, mean, stdev float64, peMin, peMax int) {
	if len(xs) == 0 {
		return 0, 0, 0, 0, 0, 0
	}
	min, max = xs[0], xs[0]
	sum := 0.0
	for pe, x := range xs {
		sum += x
		if x < min {
			min, peMin = x, pe
		}
		if x > max {
			max, peMax = x, pe
		}
	}
	mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	stdev = math.Sqrt(ss / float64(len(xs)))
	return min, max, mean, stdev, peMin, peMax
}

// PartitionSweep returns machine configurations for the given processor
// counts at the standard 450 MHz clock.
func PartitionSweep(pes ...int) []Machine {
	ms := make([]Machine, len(pes))
	for i, p := range pes {
		ms[i] = Machine{NoPe: p, ClockMHz: 450}
	}
	return ms
}
