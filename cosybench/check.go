package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// sameReport checks got against the oracle report want the way core's own
// engine-agreement tests do: the same instances in the same ranking order,
// property and context exactly, severity and confidence within a relative
// 1e-9, and no diagnostics on either side.
func sameReport(want, got *core.Report) error {
	if got == nil {
		return fmt.Errorf("no report")
	}
	if len(want.Diagnostics) != 0 || len(got.Diagnostics) != 0 {
		return fmt.Errorf("diagnostics: oracle %d, report %d", len(want.Diagnostics), len(got.Diagnostics))
	}
	if len(want.Instances) != len(got.Instances) {
		return fmt.Errorf("instance count: oracle %d, report %d", len(want.Instances), len(got.Instances))
	}
	for i := range want.Instances {
		x, y := want.Instances[i], got.Instances[i]
		if x.Property != y.Property || x.Context != y.Context {
			return fmt.Errorf("ranking differs at %d: %s/%s vs %s/%s", i, x.Property, x.Context, y.Property, y.Context)
		}
		if !closeEnough(x.Severity, y.Severity) || !closeEnough(x.Confidence, y.Confidence) {
			return fmt.Errorf("%s %s: severity %.12g vs %.12g, confidence %g vs %g",
				x.Property, x.Context, x.Severity, y.Severity, x.Confidence, y.Confidence)
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sameRender checks a service reply byte for byte against the reference
// rendering.
func sameRender(want, got string) error {
	if want == got {
		return nil
	}
	n := 0
	for n < len(want) && n < len(got) && want[n] == got[n] {
		n++
	}
	return fmt.Errorf("report differs from the reference at byte %d of %d", n, len(want))
}
