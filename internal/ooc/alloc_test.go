package ooc

import (
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
)

// TestAllocsDoNotScaleWithSpill checks two stress proofs of one length at
// one budget: one whose hints stay inside a window and one whose hints
// reach several windows back. Their spill differs more than tenfold; their
// allocations per check may differ by a few per window (a segment's file,
// path and mapping), never per spilled clause, and stay under a fixed
// bound.
func TestAllocsDoNotScaleWithSpill(t *testing.T) {
	const perWindow, bound = 8, 1500
	var allocs [2]float64
	var res [2]*checker.Result
	for i, gap := range []int{5, 400} {
		f, proof := stressProof(t, gen.StressOpts{Lemmas: 3000, Width: 64, Gap: gap})
		opts := testOpts(t, tinyBudget)
		allocs[i] = testing.AllocsPerRun(5, func() {
			r, err := CheckLRAT(f, drat.BytesSource(proof), opts)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		})
		t.Logf("gap %d: %d windows, %d spilled clauses, %.0f allocs per check",
			gap, res[i].OOCWindows, res[i].SpilledClauses, allocs[i])
	}
	if res[1].SpilledClauses < 10*res[0].SpilledClauses {
		t.Fatalf("spilled %d and %d clauses: the scenario needs a tenfold difference",
			res[0].SpilledClauses, res[1].SpilledClauses)
	}
	windows := max(res[0].OOCWindows, res[1].OOCWindows)
	if d := allocs[1] - allocs[0]; d > float64(perWindow*windows) || -d > float64(perWindow*windows) {
		t.Errorf("allocations differ by %.0f over %d windows, want at most %d per window", d, windows, perWindow)
	}
	for i := range allocs {
		if allocs[i] > bound {
			t.Errorf("%.0f allocs per check, want at most %d", allocs[i], bound)
		}
	}
}
