package drat_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// simpleUnsat is the four-clause contradiction over two variables.
func simpleUnsat() *cnf.Formula {
	f := cnf.NewFormula(2)
	f.AddClause(1, 2)
	f.AddClause(1, -2)
	f.AddClause(-1, 2)
	f.AddClause(-1, -2)
	return f
}

// simpleProof is a DRUP refutation of simpleUnsat.
const simpleProof = "1 0\n0\n"

// ratFormula is the 8-clause example whose refutation needs a genuine RAT
// step: the first lemma (-1) is not RUP but is RAT on its pivot.
func ratFormula() *cnf.Formula {
	f := cnf.NewFormula(4)
	f.AddClause(1, 2, -3)
	f.AddClause(-1, -2, 3)
	f.AddClause(2, 3, -4)
	f.AddClause(-2, -3, 4)
	f.AddClause(-1, -3, -4)
	f.AddClause(1, 3, 4)
	f.AddClause(-1, 2, 4)
	f.AddClause(1, -2, -4)
	return f
}

const ratProof = "-1 0\n2 0\n0\n"

func mustCheck(t *testing.T, f *cnf.Formula, proof string, mode drat.Mode) *checker.Result {
	t.Helper()
	res, err := drat.Check(f, drat.BytesSource(proof), mode, checker.Options{})
	if err != nil {
		t.Fatalf("%s check failed: %v", mode, err)
	}
	return res
}

func TestForwardAcceptsSimpleProof(t *testing.T) {
	res := mustCheck(t, simpleUnsat(), simpleProof, drat.Forward)
	if res.LearnedTotal != 2 || res.ClausesBuilt != 2 {
		t.Fatalf("got LearnedTotal=%d ClausesBuilt=%d, want 2/2", res.LearnedTotal, res.ClausesBuilt)
	}
	if res.CoreClauses != nil {
		t.Fatalf("forward mode should not produce a core, got %v", res.CoreClauses)
	}
}

func TestBackwardAcceptsSimpleProofWithCore(t *testing.T) {
	res := mustCheck(t, simpleUnsat(), simpleProof, drat.Backward)
	if len(res.CoreClauses) == 0 {
		t.Fatal("backward mode must report an unsat core")
	}
	for _, id := range res.CoreClauses {
		if id < 0 || id >= 4 {
			t.Fatalf("core clause %d out of formula range", id)
		}
	}
	if res.CoreVars == 0 {
		t.Fatal("core vars must be counted")
	}
}

func TestRATStepAccepted(t *testing.T) {
	for _, mode := range []drat.Mode{drat.Forward, drat.Backward} {
		res := mustCheck(t, ratFormula(), ratProof, mode)
		if res.LearnedTotal != 3 {
			t.Fatalf("%s: LearnedTotal=%d, want 3", mode, res.LearnedTotal)
		}
	}
}

func TestRejectNonLemma(t *testing.T) {
	// (1) alone is not RUP or RAT for the satisfiable formula {(1 2)}.
	f := cnf.NewFormula(2)
	f.AddClause(1, 2)
	_, err := drat.Check(f, drat.BytesSource("1 0\n0\n"), drat.Forward, checker.Options{})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailRUP {
		t.Fatalf("got %v, want FailRUP", err)
	}
}

func TestRejectNoEmptyClause(t *testing.T) {
	// The lemma is RUP, but the derivation never reaches the empty clause
	// and propagation alone does not refute the final database.
	f := cnf.NewFormula(3)
	f.AddClause(1, 2)
	f.AddClause(-1, 2)
	_, err := drat.Check(f, drat.BytesSource("2 0\n"), drat.Forward, checker.Options{})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailNotEmpty {
		t.Fatalf("got %v, want FailNotEmpty", err)
	}
}

func TestImplicitEmptyClauseAccepted(t *testing.T) {
	// DRUP tools allow the trailing "0" line to be implicit when the added
	// units already refute the database by propagation.
	f := simpleUnsat()
	for _, mode := range []drat.Mode{drat.Forward, drat.Backward} {
		if _, err := drat.Check(f, drat.BytesSource("1 0\n-1 0\n"), mode, checker.Options{}); err != nil {
			t.Fatalf("%s: implicit empty clause rejected: %v", mode, err)
		}
	}
}

func TestDeletionsHonored(t *testing.T) {
	// The empty clause has no pivot, so it can only be RUP — deleting a
	// clause the final propagation needs must be honoured and fail the check.
	// (Unit lemmas themselves stay RAT on their pivot after deletions, so the
	// empty clause is the right place to observe deletion effects.)
	if _, err := drat.Check(simpleUnsat(), drat.BytesSource("1 0\n0\n"), drat.Forward, checker.Options{}); err != nil {
		t.Fatalf("baseline proof rejected: %v", err)
	}
	// Delete the lemma the empty clause relies on.
	bad := "1 0\nd 1 0\n0\n"
	_, err := drat.Check(simpleUnsat(), drat.BytesSource(bad), drat.Forward, checker.Options{})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailRUP {
		t.Fatalf("got %v, want FailRUP after deleting the needed lemma", err)
	}
	// Delete an original the final propagation needs.
	bad2 := "d -1 2 0\n1 0\n0\n"
	if _, err := drat.Check(simpleUnsat(), drat.BytesSource(bad2), drat.Forward, checker.Options{}); err == nil {
		t.Fatal("deleting (-1 2) must break the final propagation")
	}
}

func TestEmptyOriginalClauseAcceptsImmediately(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(1)
	f.Add(cnf.Clause{}) // empty original clause
	for _, mode := range []drat.Mode{drat.Forward, drat.Backward} {
		res, err := drat.Check(f, drat.BytesSource(""), mode, checker.Options{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.ClausesBuilt != 0 {
			t.Fatalf("%s: built %d lemmas for a trivially refuted formula", mode, res.ClausesBuilt)
		}
	}
}

func TestBinaryAndGzipRoundTrip(t *testing.T) {
	f := simpleUnsat()
	lemmas := [][]int{{1}, {}}
	var ascii, binary bytes.Buffer
	aw, bw := drat.NewWriter(&ascii), drat.NewBinaryWriter(&binary)
	for _, lm := range lemmas {
		cl := make([]cnf.Lit, len(lm))
		for i, d := range lm {
			cl[i] = cnf.LitFromDimacs(d)
		}
		if err := aw.Add(cl); err != nil {
			t.Fatal(err)
		}
		if err := bw.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	aw.Close()
	bw.Close()

	var gzipped bytes.Buffer
	gz := gzip.NewWriter(&gzipped)
	gz.Write(binary.Bytes())
	gz.Close()

	for name, raw := range map[string][]byte{
		"ascii":       ascii.Bytes(),
		"binary":      binary.Bytes(),
		"gzip-binary": gzipped.Bytes(),
	} {
		p, err := drat.Parse(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if p.NumAdds() != 2 {
			t.Fatalf("%s: %d adds, want 2", name, p.NumAdds())
		}
		if _, err := drat.Check(f, drat.BytesSource(raw), drat.Forward, checker.Options{}); err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
	}
}

// nonSeeker hides everything but Read, mirroring the trace package's
// regression test: sniffing must use buffered peeks only.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestParseNonSeekableGzip(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(simpleProof))
	gz.Close()
	p, err := drat.Parse(nonSeeker{&buf})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumAdds() != 2 {
		t.Fatalf("adds=%d, want 2", p.NumAdds())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{"1 2", "- 0", "1 -0\n", "d d 0", "x 0"} {
		if _, err := drat.Parse(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q parsed without error", in)
		}
	}
}

func TestInterruptAborts(t *testing.T) {
	boom := errors.New("deadline")
	f, proof := solvedInstance(t)
	_, err := drat.Check(f, drat.BytesSource(proof), drat.Backward,
		checker.Options{Interrupt: func() error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the interrupt error", err)
	}
}

func TestMemLimit(t *testing.T) {
	f, proof := solvedInstance(t)
	_, err := drat.Check(f, drat.BytesSource(proof), drat.Forward,
		checker.Options{MemLimitWords: 1})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailMemoryLimit {
		t.Fatalf("got %v, want FailMemoryLimit", err)
	}
}

// solvedInstance produces a real instance + DRUP proof via the solver.
func solvedInstance(t *testing.T) (*cnf.Formula, []byte) {
	t.Helper()
	var inst *gen.Instance
	for i := range gen.SuiteQuick() {
		if gen.SuiteQuick()[i].ExpectUnsat {
			inst = &gen.SuiteQuick()[i]
			break
		}
	}
	if inst == nil {
		t.Fatal("no UNSAT instance in quick suite")
	}
	var proof bytes.Buffer
	s, err := solver.New(inst.F, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetProofSink(drat.NewWriter(&proof))
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.StatusUnsat {
		t.Fatalf("instance %s: status %v", inst.Name, st)
	}
	return inst.F, proof.Bytes()
}

func TestLRATEmissionReVerifies(t *testing.T) {
	f, proof := solvedInstance(t)
	var lrat bytes.Buffer
	res, err := kernelcheck.DRATToLRAT(f, drat.BytesSource(proof), &lrat, checker.Options{})
	if err != nil {
		t.Fatalf("DRATToLRAT: %v", err)
	}
	if res.LearnedTotal == 0 {
		t.Fatal("expected lemmas in the proof")
	}
	vres, err := kernelcheck.CheckLRAT(f, drat.BytesSource(lrat.Bytes()), checker.Options{})
	if err != nil {
		t.Fatalf("independent LRAT check rejected emitted proof: %v", err)
	}
	if vres.ClausesBuilt == 0 {
		t.Fatal("LRAT verification built nothing")
	}
}

func TestLRATRATEmission(t *testing.T) {
	var lrat bytes.Buffer
	if _, err := kernelcheck.DRATToLRAT(ratFormula(), drat.BytesSource(ratProof), &lrat, checker.Options{}); err != nil {
		t.Fatalf("DRATToLRAT with RAT step: %v", err)
	}
	if !strings.Contains(lrat.String(), "-") {
		t.Fatalf("expected negative RAT hints in:\n%s", lrat.String())
	}
	if _, err := kernelcheck.CheckLRAT(ratFormula(), drat.BytesSource(lrat.Bytes()), checker.Options{}); err != nil {
		t.Fatalf("independent check of RAT LRAT: %v", err)
	}
}

func TestLRATRejectsTamperedHints(t *testing.T) {
	f := simpleUnsat()
	var lrat bytes.Buffer
	if _, err := kernelcheck.DRATToLRAT(f, drat.BytesSource(simpleProof), &lrat, checker.Options{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(lrat.String()), "\n")
	// Drop the last hint of the final line: the RUP chain no longer ends in
	// a conflict.
	last := strings.Fields(lines[len(lines)-1])
	tampered := strings.Join(append(last[:len(last)-2], "0"), " ")
	lines[len(lines)-1] = tampered
	_, err := kernelcheck.CheckLRAT(f, drat.BytesSource(strings.Join(lines, "\n")), checker.Options{})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailHint {
		t.Fatalf("got %v, want FailHint", err)
	}
}

func TestTraceToLRAT(t *testing.T) {
	f, mem := solvedTraceInstance(t)
	var lrat bytes.Buffer
	if _, err := kernelcheck.TraceToLRAT(f, mem, &lrat, checker.Options{}); err != nil {
		t.Fatalf("TraceToLRAT: %v", err)
	}
	if _, err := kernelcheck.CheckLRAT(f, drat.BytesSource(lrat.Bytes()), checker.Options{}); err != nil {
		t.Fatalf("independent check: %v", err)
	}
}

// TestTraceLRATLines writes tracecheck.Derive's clauses, hinted with the
// trace's own resolve sources, as LRAT lines: the independent check must
// accept them.
func TestTraceLRATLines(t *testing.T) {
	f, mem := solvedTraceInstance(t)
	var lines []drat.LRATLine
	err := tracecheck.Derive(f, mem, func(c tracecheck.Clause) error {
		lines = append(lines, drat.LRATLine{ID: c.ID, Lits: slices.Clone(c.Lits), Hints: slices.Clone(c.Hints)})
		return nil
	})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	var lrat bytes.Buffer
	if err := drat.WriteLines(&lrat, lines); err != nil {
		t.Fatal(err)
	}
	if _, err := kernelcheck.CheckLRAT(f, drat.BytesSource(lrat.Bytes()), checker.Options{}); err != nil {
		t.Fatalf("independent check: %v", err)
	}
}

func solvedTraceInstance(t *testing.T) (*cnf.Formula, *trace.MemoryTrace) {
	t.Helper()
	var inst *gen.Instance
	for i := range gen.SuiteQuick() {
		if gen.SuiteQuick()[i].ExpectUnsat {
			inst = &gen.SuiteQuick()[i]
			break
		}
	}
	mem := &trace.MemoryTrace{}
	s, err := solver.New(inst.F, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrace(mem)
	st, err := s.Solve()
	if err != nil || st != solver.StatusUnsat {
		t.Fatalf("solve: %v %v", st, err)
	}
	return inst.F, mem
}

func TestLRATParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{"d 1 0", "5 1 0", "0 1 0 0", "5 1 d 0 0", "5 x 0 0"} {
		if _, err := drat.ParseLRAT(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q parsed without error", in)
		}
	}
}

// TestLRATBlockedClauseAccepted exercises the blocked-clause admission path:
// a line whose RUP hints are exhausted falls through to RAT, and when no live
// clause contains the negated pivot — a fresh extension variable — the
// addition is satisfiability-preserving with zero candidate groups. This is
// the admission rule the ER→LRAT bridge in internal/bdd relies on.
func TestLRATBlockedClauseAccepted(t *testing.T) {
	proof := "5 3 1 0 0\n" + // (3 1): var 3 is fresh, blocked on pivot 3
		"6 1 0 1 2 0\n" +
		"7 0 6 3 4 0\n"
	res, err := kernelcheck.CheckLRAT(simpleUnsat(), drat.BytesSource(proof), checker.Options{})
	if err != nil {
		t.Fatalf("blocked extension rejected: %v", err)
	}
	if res.ClausesBuilt != 3 {
		t.Fatalf("ClausesBuilt=%d, want 3", res.ClausesBuilt)
	}
}

// TestLRATNonBlockedClauseRejected pins the other side: the same hint-less
// line over a non-fresh pivot has live resolution candidates, and the checker
// must reject it rather than admit a sat-breaking addition.
func TestLRATNonBlockedClauseRejected(t *testing.T) {
	proof := "5 2 1 0 0\n" + // (2 1): clauses 2 and 4 contain -2, uncovered
		"6 1 0 1 2 0\n" +
		"7 0 6 3 4 0\n"
	_, err := kernelcheck.CheckLRAT(simpleUnsat(), drat.BytesSource(proof), checker.Options{})
	var ce *checker.CheckError
	if !errors.As(err, &ce) || ce.Kind != checker.FailHint || ce.ClauseID != 5 {
		t.Fatalf("got %v, want FailHint on clause 5", err)
	}
}
