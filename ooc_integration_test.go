package satcheck_test

// Differential tests for the out-of-core checker (internal/ooc): on every
// UNSAT instance of the generator suite the windowed verdict, statistics,
// and unsat core must be identical to the unconstrained kernel's, even at
// budgets small enough to force many windows and disk spills; and every
// proof mutant the kernel rejects must die out of core too (the fail-closed
// direction: ooc accepts a subset of what the kernel accepts, never more).

import (
	"bytes"
	"errors"
	"testing"

	"satcheck"
	"satcheck/internal/drat"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
)

// oocSmallBudget runs the out-of-core LRAT check at the smallest budget in
// the ladder whose resident state fits, so suite instances of any size get
// the most windows (and spills) the planner allows.
func oocSmallBudget(t *testing.T, f *satcheck.Formula, proof []byte) (*satcheck.CheckResult, error) {
	t.Helper()
	for _, budget := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 64 << 20} {
		res, err := ooc.CheckLRAT(f, satcheck.ProofBytesSource(proof),
			satcheck.CheckOptions{MemBudgetBytes: budget, TempDir: t.TempDir()})
		var ce *satcheck.CheckError
		if err != nil && errors.As(err, &ce) && ce.Kind.String() == "memory-limit" {
			continue
		}
		return res, err
	}
	t.Fatal("no budget in the ladder fit the resident state")
	return nil, nil
}

func sameResults(t *testing.T, label string, want, got *satcheck.CheckResult) {
	t.Helper()
	if want.LearnedTotal != got.LearnedTotal || want.ClausesBuilt != got.ClausesBuilt ||
		want.ResolutionSteps != got.ResolutionSteps {
		t.Fatalf("%s: stats diverge: kernel built %d/%d steps %d, ooc built %d/%d steps %d",
			label, want.ClausesBuilt, want.LearnedTotal, want.ResolutionSteps,
			got.ClausesBuilt, got.LearnedTotal, got.ResolutionSteps)
	}
	if len(want.CoreClauses) != len(got.CoreClauses) {
		t.Fatalf("%s: core sizes diverge: kernel %d, ooc %d", label, len(want.CoreClauses), len(got.CoreClauses))
	}
	for i := range want.CoreClauses {
		if want.CoreClauses[i] != got.CoreClauses[i] {
			t.Fatalf("%s: cores diverge at %d: kernel %d, ooc %d", label, i, want.CoreClauses[i], got.CoreClauses[i])
		}
	}
	if want.CoreVars != got.CoreVars {
		t.Fatalf("%s: core vars diverge: kernel %d, ooc %d", label, want.CoreVars, got.CoreVars)
	}
}

// TestOOCDifferentialSuite cross-checks the windowed checker against the
// unconstrained kernel over the bridged LRAT proof of every quick-suite
// UNSAT instance: identical verdicts, statistics, and cores.
func TestOOCDifferentialSuite(t *testing.T) {
	sawMultiWindow := false
	for _, ins := range gen.SuiteQuick() {
		ins := ins
		t.Run(ins.Name, func(t *testing.T) {
			st, mt, _ := solveBoth(t, ins.F)
			if st != satcheck.StatusUnsat {
				t.Skipf("instance is %v; the differential needs UNSAT", st)
			}
			var lrat bytes.Buffer
			if _, err := satcheck.TraceToLRAT(ins.F, mt, &lrat, satcheck.CheckOptions{}); err != nil {
				t.Fatal(err)
			}
			kres, err := satcheck.CheckLRAT(ins.F, satcheck.ProofBytesSource(lrat.Bytes()), satcheck.CheckOptions{})
			if err != nil {
				t.Fatalf("kernel rejected the bridged LRAT proof: %v", err)
			}
			ores, err := oocSmallBudget(t, ins.F, lrat.Bytes())
			if err != nil {
				t.Fatalf("ooc disagrees with the kernel: %v", err)
			}
			sameResults(t, ins.Name, kres, ores)
			if ores.OOCWindows > 1 {
				sawMultiWindow = true
			}
			if ores.PeakMemWords > ores.PeakMemBoundWords {
				t.Fatalf("peak %d exceeds the reported bound %d", ores.PeakMemWords, ores.PeakMemBoundWords)
			}
		})
	}
	if !sawMultiWindow {
		t.Fatal("no suite instance exercised more than one window; the budgets are too generous for the differential to mean anything")
	}
}

// TestOOCMethodRouting cross-checks method=ooc against method=kernel on the
// native-trace and DRAT facade entry points.
func TestOOCMethodRouting(t *testing.T) {
	f := gen.Pigeonhole(5).F
	st, mt, proof := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5) solved %v", st)
	}
	opts := satcheck.CheckOptions{MemBudgetBytes: 1 << 20, TempDir: t.TempDir()}
	kres, err := satcheck.Check(f, mt, satcheck.Kernel, satcheck.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ores, err := satcheck.Check(f, mt, satcheck.OOC, opts)
	if err != nil {
		t.Fatalf("method=ooc rejected the native trace: %v", err)
	}
	sameResults(t, "trace", kres, ores)

	kdres, err := satcheck.CheckDRAT(f, satcheck.ProofBytesSource(proof), satcheck.Kernel, satcheck.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	odres, err := satcheck.CheckDRAT(f, satcheck.ProofBytesSource(proof), satcheck.OOC, opts)
	if err != nil {
		t.Fatalf("method=ooc rejected the DRAT proof: %v", err)
	}
	sameResults(t, "drat", kdres, odres)
}

// TestOOCRejectsLRATFaults injects every LRAT catalogue mutation; whatever
// the kernel rejects, the out-of-core checker must reject too (it may
// additionally reject RAT-dependent mutants the kernel accepts, but the
// test proof is RUP-only so verdicts should simply agree).
func TestOOCRejectsLRATFaults(t *testing.T) {
	f := gen.Pigeonhole(5).F
	st, mt, _ := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5) solved %v", st)
	}
	var buf bytes.Buffer
	if _, err := satcheck.TraceToLRAT(f, mt, &buf, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	proof, err := drat.ParseLRAT(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range faults.LRATAll() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			mut, ok := faults.InjectLRAT(m, proof, 1)
			if !ok {
				t.Skip("mutation not applicable to this proof")
			}
			_, kerr := kernelcheck.CheckLRATProof(f, mut, satcheck.CheckOptions{})
			var rewritten bytes.Buffer
			if err := drat.WriteLines(&rewritten, mut.Lines); err != nil {
				t.Fatal(err)
			}
			_, oerr := ooc.CheckLRAT(f, satcheck.ProofBytesSource(rewritten.Bytes()),
				satcheck.CheckOptions{MemBudgetBytes: 256 << 10, TempDir: t.TempDir()})
			if kerr != nil && oerr == nil {
				t.Fatalf("kernel rejects %s mutant (%v) but ooc accepts it", m.Name, kerr)
			}
			if kerr == nil && oerr != nil {
				t.Fatalf("kernel accepts %s mutant but ooc rejects it: %v", m.Name, oerr)
			}
		})
	}
}

// TestOOCRunCheckRouting pins the job-level plumbing: a FormatLRAT
// CheckRequest with Method OOC verifies out of core, and FormatER with
// Method OOC is an explicit infrastructure error, not a silent fallback.
func TestOOCRunCheckRouting(t *testing.T) {
	f := gen.Pigeonhole(4).F
	st, mt, _ := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(4) solved %v", st)
	}
	var lrat bytes.Buffer
	if _, err := satcheck.TraceToLRAT(f, mt, &lrat, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := satcheck.RunCheck(t.Context(), satcheck.CheckRequest{
		Formula: f,
		Format:  satcheck.FormatLRAT,
		Proof:   satcheck.ProofBytesSource(lrat.Bytes()),
		Method:  satcheck.OOC,
		Options: satcheck.CheckOptions{MemBudgetBytes: 256 << 10, TempDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Fatalf("ooc RunCheck rejected a valid proof: %v", rep.Failure)
	}
	if rep.Result.OOCWindows < 1 || rep.Result.PeakMemBoundWords != (256<<10)/4 {
		t.Fatalf("ooc stats not surfaced: windows=%d bound=%d", rep.Result.OOCWindows, rep.Result.PeakMemBoundWords)
	}
	if _, err := satcheck.RunCheck(t.Context(), satcheck.CheckRequest{
		Formula: f,
		Format:  satcheck.FormatER,
		Proof:   satcheck.ProofBytesSource(nil),
		Method:  satcheck.OOC,
	}); err == nil {
		t.Fatal("FormatER with method=ooc should be an infrastructure error")
	}
}
