package ooc

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
)

// stressProof returns the stress formula and its LRAT refutation for o.
func stressProof(t testing.TB, o gen.StressOpts) (*cnf.Formula, []byte) {
	t.Helper()
	var b bytes.Buffer
	if err := gen.WriteStressLRAT(&b, o); err != nil {
		t.Fatal(err)
	}
	return gen.StressFormula(o), b.Bytes()
}

// planStress is the proof the plan golden pins: 20k lemmas, each hinting
// the lemma 2,500 IDs back, so every budget below one window spills.
var planStress = gen.StressOpts{Lemmas: 20_000, Width: 64, Gap: 2_500}

// TestPlanGolden pins what a budget decides for one proof: the windows,
// the spill set, the memory model's peak and bound, the kernel's work and
// the core, at one window, at about a dozen, and at the floor (the
// smallest multiple of 16 KiB whose windows fit). It pins the rejection
// below the floor, below the resident state, and on a truncated copy,
// whose parse error wins even where the resident state would not fit. A change to how the checker
// reads its input or its spill must leave every number here where it is.
func TestPlanGolden(t *testing.T) {
	f, proof := stressProof(t, planStress)
	cases := []struct {
		name                  string
		budget                int64
		windows               int
		spilled, spilledBytes int64
		peak, bound           int64
	}{
		{"one-window", 32 << 20, 1, 0, 0, 763_839, 8 << 20},
		{"dozen", 1536 << 10, 13, 17_311, 140_149, 126_714, 384 << 10},
		{"floor", 288 << 10, 171, 17_500, 141_540, 70_855, 72 << 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := CheckLRAT(f, drat.BytesSource(proof), testOpts(t, c.budget))
			if err != nil {
				t.Fatal(err)
			}
			got := []int64{int64(res.OOCWindows), res.SpilledClauses, res.SpilledBytes, res.PeakMemWords, res.PeakMemBoundWords}
			want := []int64{int64(c.windows), c.spilled, c.spilledBytes, c.peak, c.bound}
			if !slices.Equal(got, want) {
				t.Errorf("windows, spilled clauses, spilled bytes, model peak, bound = %v, want %v", got, want)
			}
			if res.LearnedTotal != 20_001 || res.ClausesBuilt != 20_001 || res.ResolutionSteps != 57_502 {
				t.Errorf("learned %d built %d steps %d, want 20001, 20001, 57502",
					res.LearnedTotal, res.ClausesBuilt, res.ResolutionSteps)
			}
			if !slices.Equal(res.CoreClauses, []int{0, 1}) || res.CoreVars != 1 {
				t.Errorf("core %v over %d vars, want [0 1] over 1", res.CoreClauses, res.CoreVars)
			}
		})
	}
	rejections := []struct {
		name   string
		budget int64
		proof  []byte
		kind   checker.FailureKind
		msg    string
	}{
		{"below-floor", 272 << 10, proof, checker.FailMemoryLimit,
			"check failed [memory-limit]: out-of-core window needs 70620 words, over the 69632-word budget (raise -mem-budget)"},
		{"resident-state", 128 << 10, proof, checker.FailMemoryLimit,
			"check failed [memory-limit]: out-of-core resident state needs 66180 words, over the 32768-word budget (raise -mem-budget)"},
		{"truncated/resident-state", 96 << 10, proof[:len(proof)/2], checker.FailTrace,
			"check failed [malformed-trace]: lrat: line 19828: truncated line: EOF"},
		{"truncated/one-window", 32 << 20, proof[:len(proof)/2], checker.FailTrace,
			"check failed [malformed-trace]: lrat: line 19828: truncated line: EOF"},
		{"truncated/floor", 288 << 10, proof[:len(proof)/2], checker.FailTrace,
			"check failed [malformed-trace]: lrat: line 19828: truncated line: EOF"},
	}
	for _, c := range rejections {
		t.Run(c.name, func(t *testing.T) {
			_, err := CheckLRAT(f, drat.BytesSource(c.proof), testOpts(t, c.budget))
			var ce *checker.CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want a *CheckError", err)
			}
			if ce.Kind != c.kind || ce.Error() != c.msg {
				t.Errorf("got [%s] %q, want [%s] %q", ce.Kind, ce.Error(), c.kind, c.msg)
			}
		})
	}
}
