package apprentice

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
)

// The Apprentice summary-file format. The real MPP Apprentice wrote its
// post-processed summary information to a file which was then transferred
// into the COSY database; this package defines an equivalent line-oriented
// text format:
//
//	APPRENTICE 1
//	program <name>
//	version <compile-unix-time>
//	run <start-unix-time> <nope> <clockMHz>            (one per test run)
//	function <name>
//	region <id> <parent-id|-> <kind> <name>            (pre-order, per function)
//	tot <run-index> <excl> <incl> <ovhd>               (within current region)
//	typ <run-index> <TimingType> <time>
//	call <callee> <caller-function> <region-id>
//	sum <run-index> <12 call-timing fields>
//	end
//
// Identifiers with spaces are not supported; the simulator never generates
// them. Numbers use Go's shortest round-trip float formatting, so a
// write/read cycle is lossless.

// WriteSummary writes a single-version dataset in summary format.
func WriteSummary(w io.Writer, d *model.Dataset) error {
	if len(d.Versions) != 1 {
		return fmt.Errorf("apprentice: summary files hold exactly one program version, dataset has %d", len(d.Versions))
	}
	if err := d.Validate(); err != nil {
		return err
	}
	v := d.Versions[0]
	bw := bufio.NewWriter(w)

	runIdx := make(map[*model.TestRun]int)
	regionID := make(map[*model.Region]int)
	nextRegion := 0

	fmt.Fprintln(bw, "APPRENTICE 1")
	fmt.Fprintf(bw, "program %s\n", d.Program)
	fmt.Fprintf(bw, "version %d\n", v.Compilation.Unix())
	for i, run := range v.Runs {
		runIdx[run] = i
		fmt.Fprintf(bw, "run %d %d %d\n", run.Start.Unix(), run.NoPe, run.Clockspeed)
	}
	for _, f := range v.Functions {
		fmt.Fprintf(bw, "function %s\n", f.Name)
		for _, root := range f.Regions {
			root.Walk(func(r *model.Region) {
				id := nextRegion
				nextRegion++
				regionID[r] = id
				parent := "-"
				if r.Parent != nil {
					parent = strconv.Itoa(regionID[r.Parent])
				}
				fmt.Fprintf(bw, "region %d %s %s %s\n", id, parent, r.Kind, r.Name)
				for _, tt := range r.TotTimes {
					fmt.Fprintf(bw, "tot %d %s %s %s\n", runIdx[tt.Run], ftoa(tt.Excl), ftoa(tt.Incl), ftoa(tt.Ovhd))
				}
				for _, tt := range r.TypTimes {
					fmt.Fprintf(bw, "typ %d %s %s\n", runIdx[tt.Run], tt.Type, ftoa(tt.Time))
				}
			})
		}
	}
	for _, f := range v.Functions {
		for _, call := range f.Calls {
			caller := "-"
			if call.Caller != nil {
				caller = call.Caller.Name
			}
			reg := -1
			if call.CallingReg != nil {
				reg = regionID[call.CallingReg]
			}
			fmt.Fprintf(bw, "call %s %s %d\n", call.Callee, caller, reg)
			for _, ct := range call.Sums {
				fmt.Fprintf(bw, "sum %d %s %s %s %s %d %d %s %s %s %s %d %d\n",
					runIdx[ct.Run],
					ftoa(ct.MinCalls), ftoa(ct.MaxCalls), ftoa(ct.MeanCalls), ftoa(ct.StdevCalls),
					ct.PeMinCalls, ct.PeMaxCalls,
					ftoa(ct.MinTime), ftoa(ct.MaxTime), ftoa(ct.MeanTime), ftoa(ct.StdevTime),
					ct.PeMinTime, ct.PeMaxTime)
			}
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ReadSummary parses a summary file back into a dataset.
func ReadSummary(r io.Reader) (*model.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	readLine := func() ([]string, error) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			return strings.Fields(text), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("apprentice: line %d: %s", line, fmt.Sprintf(format, args...))
	}

	fields, err := readLine()
	if err != nil || len(fields) != 2 || fields[0] != "APPRENTICE" || fields[1] != "1" {
		return nil, fail("missing APPRENTICE 1 header")
	}

	d := &model.Dataset{}
	v := &model.Version{}
	d.Versions = []*model.Version{v}

	var runs []*model.TestRun
	regions := make(map[int]*model.Region)
	funcs := make(map[string]*model.Function)
	var curFunc *model.Function
	var curRegion *model.Region
	var curCall *model.FunctionCall
	sawEnd := false

	for {
		fields, err = readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return nil, fail("program wants 1 argument")
			}
			d.Program = fields[1]
		case "version":
			if len(fields) != 2 {
				return nil, fail("version wants 1 argument")
			}
			ts, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fail("bad version timestamp: %v", err)
			}
			v.Compilation = time.Unix(ts, 0).UTC()
		case "run":
			if len(fields) != 4 {
				return nil, fail("run wants 3 arguments")
			}
			ts, err1 := strconv.ParseInt(fields[1], 10, 64)
			nope, err2 := strconv.Atoi(fields[2])
			clock, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad run record")
			}
			run := &model.TestRun{Start: time.Unix(ts, 0).UTC(), NoPe: nope, Clockspeed: clock}
			runs = append(runs, run)
			v.Runs = append(v.Runs, run)
		case "function":
			if len(fields) != 2 {
				return nil, fail("function wants 1 argument")
			}
			curFunc = &model.Function{Name: fields[1]}
			funcs[curFunc.Name] = curFunc
			v.Functions = append(v.Functions, curFunc)
			curRegion, curCall = nil, nil
		case "region":
			if curFunc == nil {
				return nil, fail("region outside function")
			}
			if len(fields) != 5 {
				return nil, fail("region wants 4 arguments")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad region id: %v", err)
			}
			// fields: region <id> <parent> <kind> <name>
			reg := &model.Region{Name: fields[4], Kind: model.RegionKind(fields[3])}
			if fields[2] != "-" {
				pid, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, fail("bad parent id: %v", err)
				}
				parent, ok := regions[pid]
				if !ok {
					return nil, fail("region %d references unknown parent %d", id, pid)
				}
				reg.Parent = parent
				parent.Children = append(parent.Children, reg)
			} else {
				curFunc.Regions = append(curFunc.Regions, reg)
			}
			if _, dup := regions[id]; dup {
				return nil, fail("duplicate region id %d", id)
			}
			regions[id] = reg
			curRegion = reg
		case "tot":
			if curRegion == nil {
				return nil, fail("tot outside region")
			}
			if len(fields) != 5 {
				return nil, fail("tot wants 4 arguments")
			}
			ri, err := strconv.Atoi(fields[1])
			if err != nil || ri < 0 || ri >= len(runs) {
				return nil, fail("bad run index %s", fields[1])
			}
			excl, e1 := strconv.ParseFloat(fields[2], 64)
			incl, e2 := strconv.ParseFloat(fields[3], 64)
			ovhd, e3 := strconv.ParseFloat(fields[4], 64)
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fail("bad tot record")
			}
			curRegion.TotTimes = append(curRegion.TotTimes, &model.TotalTiming{Run: runs[ri], Excl: excl, Incl: incl, Ovhd: ovhd})
		case "typ":
			if curRegion == nil {
				return nil, fail("typ outside region")
			}
			if len(fields) != 4 {
				return nil, fail("typ wants 3 arguments")
			}
			ri, err := strconv.Atoi(fields[1])
			if err != nil || ri < 0 || ri >= len(runs) {
				return nil, fail("bad run index %s", fields[1])
			}
			tt, err := model.ParseTimingType(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			t, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fail("bad typ time: %v", err)
			}
			curRegion.TypTimes = append(curRegion.TypTimes, &model.TypedTiming{Run: runs[ri], Type: tt, Time: t})
		case "call":
			if len(fields) != 4 {
				return nil, fail("call wants 3 arguments")
			}
			callee, ok := funcs[fields[1]]
			if !ok {
				return nil, fail("call references unknown callee %s", fields[1])
			}
			call := &model.FunctionCall{Callee: fields[1]}
			if fields[2] != "-" {
				caller, ok := funcs[fields[2]]
				if !ok {
					return nil, fail("call references unknown caller %s", fields[2])
				}
				call.Caller = caller
			}
			rid, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fail("bad call region id: %v", err)
			}
			if rid >= 0 {
				reg, ok := regions[rid]
				if !ok {
					return nil, fail("call references unknown region %d", rid)
				}
				call.CallingReg = reg
			}
			callee.Calls = append(callee.Calls, call)
			curCall = call
		case "sum":
			if curCall == nil {
				return nil, fail("sum outside call")
			}
			if len(fields) != 14 {
				return nil, fail("sum wants 13 arguments")
			}
			ri, err := strconv.Atoi(fields[1])
			if err != nil || ri < 0 || ri >= len(runs) {
				return nil, fail("bad run index %s", fields[1])
			}
			fs := make([]float64, 8)
			is := make([]int, 4)
			order := []int{2, 3, 4, 5, 8, 9, 10, 11}
			for i, fi := range order {
				if fs[i], err = strconv.ParseFloat(fields[fi], 64); err != nil {
					return nil, fail("bad sum field %d: %v", fi, err)
				}
			}
			for i, fi := range []int{6, 7, 12, 13} {
				if is[i], err = strconv.Atoi(fields[fi]); err != nil {
					return nil, fail("bad sum field %d: %v", fi, err)
				}
			}
			curCall.Sums = append(curCall.Sums, &model.CallTiming{
				Run:      runs[ri],
				MinCalls: fs[0], MaxCalls: fs[1], MeanCalls: fs[2], StdevCalls: fs[3],
				PeMinCalls: is[0], PeMaxCalls: is[1],
				MinTime: fs[4], MaxTime: fs[5], MeanTime: fs[6], StdevTime: fs[7],
				PeMinTime: is[2], PeMaxTime: is[3],
			})
		case "end":
			sawEnd = true
		default:
			return nil, fail("unknown record %q", fields[0])
		}
	}
	if !sawEnd {
		return nil, fmt.Errorf("apprentice: truncated summary file (no end record)")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("apprentice: summary file invalid: %w", err)
	}
	return d, nil
}
