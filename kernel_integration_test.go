package satcheck_test

// Differential tests for the trusted kernel (internal/kernel), the single
// code path allowed to report "verified": for every UNSAT instance of the
// generator suite the kernel-gated verdict (method=kernel over the native
// trace and over the DRAT proof) must agree with the classic checkers, the
// kernel's hint-closure core must be a genuine unsatisfiable core, and every
// fault-injection mutant the classic checkers reject must also die on the
// kernel path.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/certify/kernelpipe"
	"satcheck/internal/cnf"
	"satcheck/internal/core"
	"satcheck/internal/drat"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/trace"
)

// TestKernelDifferentialSuite cross-checks method=kernel against hybrid and
// parallel on every UNSAT instance of the quick suite, over both proof
// encodings. On the native trace the kernel's core must equal the
// depth-first checker's: both are the closure of the trace's chains.
func TestKernelDifferentialSuite(t *testing.T) {
	for _, ins := range gen.SuiteQuick() {
		ins := ins
		t.Run(ins.Name, func(t *testing.T) {
			st, mt, proof := solveBoth(t, ins.F)
			if st != satcheck.StatusUnsat {
				t.Skipf("instance is %v; the differential needs UNSAT", st)
			}
			if _, err := satcheck.Check(ins.F, mt, satcheck.Hybrid, satcheck.CheckOptions{}); err != nil {
				t.Fatalf("native hybrid rejected: %v", err)
			}
			kres, err := satcheck.Check(ins.F, mt, satcheck.Kernel, satcheck.CheckOptions{})
			if err != nil {
				t.Fatalf("kernel disagrees with hybrid on the native trace: %v", err)
			}
			checkKernelCore(t, "trace", ins.F, kres)
			dfres, err := satcheck.Check(ins.F, mt, satcheck.DepthFirst, satcheck.CheckOptions{})
			if err != nil {
				t.Fatalf("native depth-first rejected: %v", err)
			}
			if !slices.Equal(kres.CoreClauses, dfres.CoreClauses) {
				t.Fatalf("kernel core (%d clauses) differs from depth-first core (%d clauses)",
					len(kres.CoreClauses), len(dfres.CoreClauses))
			}
			dres, err := satcheck.CheckDRAT(ins.F, satcheck.ProofBytesSource(proof), satcheck.Kernel, satcheck.CheckOptions{})
			if err != nil {
				t.Fatalf("kernel disagrees with hybrid on the DRAT proof: %v", err)
			}
			checkKernelCore(t, "drat", ins.F, dres)
		})
	}
}

// TestTraceCheckDifferential checks the TraceCheck export of every UNSAT
// instance of the quick suite and of testdata/corpus as FormatTC, in the
// kernel and out of core. Replay hands the kernel the clauses and hints
// Derive does, so verdict, LearnedTotal, ResolutionSteps and core must
// equal FormatNative's under the kernel.
func TestTraceCheckDifferential(t *testing.T) {
	instances := gen.SuiteQuick()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.cnf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v, %v", paths, err)
	}
	for _, p := range paths {
		f, err := satcheck.ParseDimacsFile(p)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, gen.Instance{Name: filepath.Base(p), F: f})
	}
	ctx := context.Background()
	for _, ins := range instances {
		t.Run(ins.Name, func(t *testing.T) {
			run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if run.Status != satcheck.StatusUnsat {
				t.Skipf("instance is %v; the differential needs UNSAT", run.Status)
			}
			var tc bytes.Buffer
			if err := satcheck.ExportTraceCheck(ins.F, run.Trace, &tc); err != nil {
				t.Fatal(err)
			}
			want, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{Formula: ins.F, Format: satcheck.FormatNative,
				Method: satcheck.Kernel, Trace: run.Trace})
			if err != nil || !want.Valid {
				t.Fatalf("native kernel check: %+v, %v", want, err)
			}
			for _, m := range []satcheck.Method{satcheck.Kernel, satcheck.OOC} {
				got, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{Formula: ins.F, Format: satcheck.FormatTC,
					Method: m, Proof: satcheck.ProofBytesSource(tc.Bytes()), Options: satcheck.CheckOptions{TempDir: t.TempDir()}})
				switch {
				case err != nil || !got.Valid:
					t.Fatalf("tc/%s: %+v, %v", m.Name(), got, err)
				case got.Result.LearnedTotal != want.Result.LearnedTotal ||
					got.Result.ResolutionSteps != want.Result.ResolutionSteps:
					t.Errorf("tc/%s: learned=%d steps=%d, native kernel learned=%d steps=%d", m.Name(),
						got.Result.LearnedTotal, got.Result.ResolutionSteps, want.Result.LearnedTotal, want.Result.ResolutionSteps)
				case !slices.Equal(got.Result.CoreClauses, want.Result.CoreClauses):
					t.Errorf("tc/%s: core %v, native kernel core %v", m.Name(), got.Result.CoreClauses, want.Result.CoreClauses)
				}
			}
		})
	}
}

// TestHandBuiltTraces pins valid traces at the corners of the native trace
// → kernel path; every checker and the certification kernel pipeline must
// accept each.
//
//   - repeated-pivot: (a∨b) (¬a∨c) (¬c∨a) (¬a∨d) derive (b∨d) on pivots a,
//     c, a. Reversing that chain hints (¬a∨c) while ¬a is already true, so
//     a plain-reversal translation rejects the proof.
//   - formula-empty-clause: the final conflict is the formula's own empty
//     clause, so no chain derives it.
func TestHandBuiltTraces(t *testing.T) {
	const a, b, c, d = 1, 2, 3, 4
	pivots := satcheck.NewFormula(4)
	pivots.AddClause(a, b)
	pivots.AddClause(-a, c)
	pivots.AddClause(-c, a)
	pivots.AddClause(-a, d)
	pivots.AddClause(-b)
	pivots.AddClause(-d)
	pivotsTrace := &trace.MemoryTrace{}
	pivotsTrace.Learned(6, []int{0, 1, 2, 3})
	pivotsTrace.LevelZero(cnf.Var(b), false, 4)
	pivotsTrace.LevelZero(cnf.Var(d), false, 5)
	pivotsTrace.FinalConflict(6)

	empty := satcheck.NewFormula(1)
	empty.AddClause(a)
	empty.Add(cnf.Clause{})
	emptyTrace := &trace.MemoryTrace{}
	emptyTrace.FinalConflict(1)

	for _, tc := range []struct {
		name string
		f    *satcheck.Formula
		mt   *trace.MemoryTrace
	}{
		{"repeated-pivot", pivots, pivotsTrace},
		{"formula-empty-clause", empty, emptyTrace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid,
				satcheck.Parallel, satcheck.Kernel, satcheck.OOC} {
				if _, err := satcheck.Check(tc.f, tc.mt, m, satcheck.CheckOptions{TempDir: t.TempDir()}); err != nil {
					t.Errorf("%v rejected a valid trace: %v", m, err)
				}
			}
			var tb bytes.Buffer
			w := trace.NewASCIIWriter(&tb)
			if err := tc.mt.Replay(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := kernelpipe.CheckTrace(tc.f, tb.Bytes(), kernelpipe.Options{}); err != nil {
				t.Errorf("kernelpipe rejected a valid trace: %v", err)
			}
		})
	}
}

// checkKernelCore validates the shape of a kernel hint-closure core.
func checkKernelCore(t *testing.T, label string, f *satcheck.Formula, res *satcheck.CheckResult) {
	t.Helper()
	if len(res.CoreClauses) == 0 {
		t.Fatalf("%s: kernel produced no core", label)
	}
	for i, id := range res.CoreClauses {
		if id < 0 || id >= f.NumClauses() {
			t.Fatalf("%s: core names clause %d outside the formula", label, id)
		}
		if i > 0 && id <= res.CoreClauses[i-1] {
			t.Fatalf("%s: core not strictly ascending at %d", label, i)
		}
	}
	if res.CoreVars <= 0 {
		t.Fatalf("%s: core reports %d variables", label, res.CoreVars)
	}
}

// TestKernelCoreIsUnsat re-solves the kernel's hint-closure core: the core
// sub-formula must itself be unsatisfiable, with its proof re-verified by
// the kernel — the semantic guarantee behind the shape checks above.
func TestKernelCoreIsUnsat(t *testing.T) {
	f := gen.Pigeonhole(5).F
	st, mt, _ := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5) solved %v", st)
	}
	res, err := satcheck.Check(f, mt, satcheck.Kernel, satcheck.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := core.FromCheck(f, res)
	if err != nil {
		t.Fatal(err)
	}
	st2, mt2, _ := solveBoth(t, ext.Core)
	if st2 != satcheck.StatusUnsat {
		t.Fatalf("kernel core is %v, want UNSAT", st2)
	}
	if _, err := satcheck.Check(ext.Core, mt2, satcheck.Kernel, satcheck.CheckOptions{}); err != nil {
		t.Fatalf("core's own proof rejected by the kernel: %v", err)
	}
}

// TestKernelRejectsNativeFaults injects every must-reject trace mutation and
// requires the kernel path (trace→derived chains→kernel) to reject it, just
// as the classic checkers do.
func TestKernelRejectsNativeFaults(t *testing.T) {
	f := gen.Pigeonhole(5).F
	st, mt, _ := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5) solved %v", st)
	}
	for _, m := range faults.All() {
		if !m.MustReject {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			mut, ok := faults.Inject(m, mt, 1)
			if !ok {
				t.Skip("mutation not applicable to this trace")
			}
			if _, err := satcheck.Check(f, mut, satcheck.Kernel, satcheck.CheckOptions{}); err == nil {
				t.Fatalf("kernel accepted %s mutant (%s)", m.Name, m.Bug)
			}
		})
	}
}

// TestKernelRejectsLRATFaults corrupts the hints of a bridged LRAT proof
// with every catalogue mutation; the kernel (now the engine behind
// CheckLRATProof) must reject each applicable mutant.
func TestKernelRejectsLRATFaults(t *testing.T) {
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
			if _, err := kernelcheck.CheckLRATProof(f, mut, satcheck.CheckOptions{}); err == nil {
				t.Fatalf("kernel accepted %s mutant (%s)", m.Name, m.Bug)
			}
		})
	}
}

// TestKernelMalformedTraceIsRejection pins the failure classification of
// structurally corrupt traces: with no final-conflict record, or with a
// variable assigned at level 0 twice (with either value), every native
// method — the kernel-gated ones included — must surface a *CheckError
// with the malformed-trace kind, not a raw bridge error, so zverify exits
// 2 and zcheckd records a cached "rejected" verdict rather than a worker
// failure. The certification kernel pipeline and interpolation, which
// replay the same final stage, must refuse the traces too.
func TestKernelMalformedTraceIsRejection(t *testing.T) {
	f := gen.Pigeonhole(5).F
	run, err := satcheck.SolveWithProof(f, satcheck.SolverOptions{})
	if err != nil || run.Status != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5): %v, %v", run, err)
	}
	noFinal := &trace.MemoryTrace{}
	for _, ev := range run.Trace.Events {
		if ev.Kind != trace.KindFinalConflict {
			noFinal.Events = append(noFinal.Events, ev)
		}
	}
	// twice inserts a copy of the first level-0 record right after it.
	twice := func(flip bool) *trace.MemoryTrace {
		i := slices.IndexFunc(run.Trace.Events, func(ev trace.Event) bool { return ev.Kind == trace.KindLevelZero })
		if i < 0 {
			t.Fatal("trace has no level-0 record")
		}
		dup := run.Trace.Events[i]
		dup.Value = dup.Value != flip
		return &trace.MemoryTrace{Events: slices.Insert(slices.Clone(run.Trace.Events), i+1, dup)}
	}
	inA := make([]bool, f.NumClauses())
	for i := range inA[:len(inA)/2] {
		inA[i] = true
	}
	for _, tc := range []struct {
		name string
		mt   *trace.MemoryTrace
	}{
		{"no-final-conflict", noFinal},
		{"level0-twice-flipped", twice(true)},
		{"level0-twice-same", twice(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid,
				satcheck.Parallel, satcheck.Kernel, satcheck.OOC} {
				_, err := satcheck.Check(f, tc.mt, m, satcheck.CheckOptions{TempDir: t.TempDir()})
				if err == nil {
					t.Fatalf("%v accepted the trace", m)
				}
				var ce *satcheck.CheckError
				if !errors.As(err, &ce) {
					t.Fatalf("%v rejection is not a *CheckError: %v", m, err)
				}
				if ce.Kind.String() != "malformed-trace" {
					t.Fatalf("%v rejection kind = %q, want malformed-trace (%v)", m, ce.Kind, err)
				}
			}
			var text bytes.Buffer
			if err := tc.mt.Replay(trace.NewASCIIWriter(&text)); err != nil {
				t.Fatal(err)
			}
			var rej *kernelpipe.Reject
			if _, err := kernelpipe.CheckTrace(f, text.Bytes(), kernelpipe.Options{}); !errors.As(err, &rej) {
				t.Fatalf("kernelpipe.CheckTrace: %v, want a rejection", err)
			}
			if _, err := satcheck.Interpolate(f, tc.mt, inA); err == nil {
				t.Fatal("Interpolate accepted the trace")
			}
		})
	}
}

// TestFinalStageAntecedentRule pins the final stage's antecedent rule on
// the trace that broke it: php-5 with one resolution step dropped (seed 1)
// records a level-0 antecedent with a literal assigned later, which hybrid
// rejects as invalid-antecedent. Replaying it unchecked looped without
// bound, so every path that replays the final stage runs under a deadline
// and must reject the trace.
func TestFinalStageAntecedentRule(t *testing.T) {
	f := gen.Pigeonhole(5).F
	run, err := satcheck.SolveWithProof(f, satcheck.SolverOptions{})
	if err != nil || run.Status != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5): %v, %v", run, err)
	}
	m, err := faults.ByName("drop-resolution-step")
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := faults.Inject(m, run.Trace, 1)
	if !ok {
		t.Fatal("mutation not applied")
	}
	var ce *satcheck.CheckError
	if _, err := satcheck.Check(f, bad, satcheck.Hybrid, satcheck.CheckOptions{}); !errors.As(err, &ce) || ce.Kind.String() != "invalid-antecedent" {
		t.Fatalf("hybrid on the mutant: %v, want an invalid-antecedent rejection", err)
	}
	var text bytes.Buffer
	if err := bad.Replay(trace.NewASCIIWriter(&text)); err != nil {
		t.Fatal(err)
	}
	inA := make([]bool, f.NumClauses())
	for i := range inA[:len(inA)/2] {
		inA[i] = true
	}
	dir := t.TempDir()
	runCheck := func(m satcheck.Method) error {
		rep, err := satcheck.RunCheck(context.Background(), satcheck.CheckRequest{
			Formula: f, Trace: bad, Method: m, Options: satcheck.CheckOptions{TempDir: dir}})
		if err != nil || rep.Valid {
			return fmt.Errorf("report %+v, err %v; want a rejection report", rep, err)
		}
		return nil
	}
	// Each check returns nil when it rejects the mutant as it should.
	checks := []struct {
		name  string
		check func() error
	}{
		{"method=kernel", func() error { return runCheck(satcheck.Kernel) }},
		{"method=ooc", func() error { return runCheck(satcheck.OOC) }},
		{"kernelpipe.CheckTrace", func() error {
			if _, err := kernelpipe.CheckTrace(f, text.Bytes(), kernelpipe.Options{}); err == nil {
				return errors.New("accepted the mutant")
			}
			return nil
		}},
		{"Interpolate", func() error {
			if _, err := satcheck.Interpolate(f, bad, inA); err == nil {
				return errors.New("accepted the mutant")
			}
			return nil
		}},
	}
	deadline := time.After(5 * time.Second)
	for _, c := range checks {
		done := make(chan error, 1)
		go func() { done <- c.check() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		case <-deadline:
			t.Fatalf("%s: final-stage replay still running after 5s", c.name)
		}
	}
}

// TestKernelClausalMutantAgreement runs every DRAT catalogue mutation (benign
// ones included) through both the forward clausal checker and the
// kernel-gated path; the two must never disagree about a mutant.
func TestKernelClausalMutantAgreement(t *testing.T) {
	f := gen.Pigeonhole(5).F
	st, _, proofBytes := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("pigeonhole(5) solved %v", st)
	}
	proof, err := drat.Load(drat.BytesSource(proofBytes))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range faults.ClausalAll() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			mut, ok := faults.InjectClausal(m, proof, rng.Int63())
			if !ok {
				t.Skip("mutation not applicable to this proof")
			}
			var rewritten bytes.Buffer
			w := drat.NewWriter(&rewritten)
			for _, st := range mut.Steps {
				if st.Del {
					_ = w.Del(st.Lits)
				} else {
					_ = w.Add(st.Lits)
				}
			}
			_ = w.Close()
			src := satcheck.ProofBytesSource(rewritten.Bytes())
			_, fwdErr := satcheck.CheckDRAT(f, src, satcheck.BreadthFirst, satcheck.CheckOptions{})
			_, kErr := satcheck.CheckDRAT(f, src, satcheck.Kernel, satcheck.CheckOptions{})
			if (fwdErr == nil) != (kErr == nil) {
				t.Fatalf("checkers disagree on %s mutant: forward=%v kernel=%v", m.Name, fwdErr, kErr)
			}
		})
	}
}
