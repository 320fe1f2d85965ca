package satcheck_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/faults"
)

// solveUnsatReq builds an UNSAT formula and its trace for RunCheck tests.
func solveUnsatReq(t *testing.T, holes int) (*satcheck.Formula, *satcheck.MemoryTrace) {
	t.Helper()
	f := phpFormula(holes)
	run, err := satcheck.SolveWithProof(f, satcheck.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Status != satcheck.StatusUnsat {
		t.Fatalf("expected UNSAT, got %v", run.Status)
	}
	return f, run.Trace
}

// TestRunCheckValid exercises the happy path of the job-level entry point,
// including Analyze.
func TestRunCheckValid(t *testing.T) {
	f, mt := solveUnsatReq(t, 5)
	for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid} {
		rep, err := satcheck.RunCheck(context.Background(), satcheck.CheckRequest{
			Formula: f, Trace: mt, Method: m, Analyze: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !rep.Valid || rep.Result == nil || rep.Failure != nil {
			t.Fatalf("%v: report = %+v", m, rep)
		}
		if rep.Stats == nil || rep.Stats.NumLearned == 0 {
			t.Errorf("%v: Analyze did not populate Stats: %+v", m, rep.Stats)
		}
		if rep.Method != m {
			t.Errorf("Method echo: got %v want %v", rep.Method, m)
		}
	}
}

// TestRunCheckRejectionIsReport pins the service-critical contract: a bad
// proof is a report with Failure set, not an error return.
func TestRunCheckRejectionIsReport(t *testing.T) {
	f, mt := solveUnsatReq(t, 5)
	mut, err := faults.ByName("truncated-trace")
	if err != nil {
		t.Fatal(err)
	}
	bad, applied := faults.Inject(mut, mt, 1)
	if !applied {
		t.Fatal("mutation not applied")
	}
	rep, err := satcheck.RunCheck(context.Background(), satcheck.CheckRequest{
		Formula: f, Trace: bad, Method: satcheck.BreadthFirst,
	})
	if err != nil {
		t.Fatalf("rejection surfaced as error: %v", err)
	}
	if rep.Valid || rep.Failure == nil {
		t.Fatalf("report = %+v, want Valid=false with Failure", rep)
	}
	if rep.Failure.Kind.String() == "" {
		t.Error("Failure.Kind is empty")
	}
}

// TestRunCheckHonorsContext verifies cancellation aborts the job with the
// context's error, both when already-expired and mid-run. The LRAT proof
// is a file, which the kernel reads without going through the context's
// reader, so only the checker's Interrupt polling can see the context.
func TestRunCheckHonorsContext(t *testing.T) {
	f, mt := solveUnsatReq(t, 6)
	var lrat bytes.Buffer
	if _, err := satcheck.TraceToLRAT(f, mt, &lrat, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	lratPath := filepath.Join(t.TempDir(), "php6.lrat")
	if err := os.WriteFile(lratPath, lrat.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reqs := []satcheck.CheckRequest{
		{Formula: f, Trace: mt, Method: satcheck.DepthFirst},
		{Formula: f, Trace: mt, Method: satcheck.BreadthFirst, Analyze: true},
	}
	for _, m := range []satcheck.Method{satcheck.Kernel, satcheck.OOC} {
		reqs = append(reqs, satcheck.CheckRequest{Formula: f, Format: satcheck.FormatLRAT, Method: m,
			Proof: satcheck.ProofFileSource(lratPath), Options: satcheck.CheckOptions{TempDir: t.TempDir()}})
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	for _, req := range reqs {
		if _, err := satcheck.RunCheck(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s/%v pre-cancelled ctx: err = %v, want context.Canceled", req.Format, req.Method, err)
		}
		if _, err := satcheck.RunCheck(dctx, req); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s/%v expired deadline: err = %v, want context.DeadlineExceeded", req.Format, req.Method, err)
		}
	}
}

// TestRunCheckNoProofSource pins that a request without its proof is an
// error for every format, never a panic.
func TestRunCheckNoProofSource(t *testing.T) {
	f := phpFormula(3)
	for _, format := range []satcheck.ProofFormat{satcheck.FormatNative, satcheck.FormatDRAT, satcheck.FormatLRAT, satcheck.FormatER} {
		_, err := satcheck.RunCheck(context.Background(), satcheck.CheckRequest{Formula: f, Format: format})
		if err == nil || !strings.Contains(err.Error(), "has no proof source") {
			t.Errorf("%s request without a proof: err = %v, want a missing-proof error", format, err)
		}
	}
}

// TestRunCheckMatrix pins RunCheck's dispatch table on one small UNSAT
// instance, padded with two clauses no refutation needs: every proof format
// under every method is valid with the proof's core ('c'), valid without a
// core ('-'), or refused by CheckablePair ('x').
func TestRunCheckMatrix(t *testing.T) {
	f := phpFormula(4)
	v := f.NumVars
	f.AddClause(v+1, v+2)
	f.AddClause(-(v + 1), v+3)
	st, mt, dratProof := solveBoth(t, f)
	if st != satcheck.StatusUnsat {
		t.Fatalf("padded php-4 solved %v", st)
	}
	var lrat, er bytes.Buffer
	if _, err := satcheck.TraceToLRAT(f, mt, &lrat, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	bres, err := satcheck.SolveBDD(f, satcheck.BDDOptions{Proof: true})
	if err != nil || bres.Status != satcheck.StatusUnsat {
		t.Fatalf("SolveBDD: %v, %v", bres, err)
	}
	if err := satcheck.WriteERProof(&er, bres.Proof); err != nil {
		t.Fatal(err)
	}
	// Columns: df bf hybrid parallel bdd kernel ooc.
	methods := []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid,
		satcheck.Parallel, satcheck.BDD, satcheck.Kernel, satcheck.OOC}
	rows := []struct {
		format satcheck.ProofFormat
		cells  string
		trace  satcheck.TraceSource
		proof  []byte
	}{
		{satcheck.FormatNative, "c-ccxcc", mt, nil},
		{satcheck.FormatDRAT, "c-ccxcc", nil, dratProof},
		{satcheck.FormatLRAT, "ccccxcc", nil, lrat.Bytes()},
		{satcheck.FormatER, "------x", nil, er.Bytes()},
	}
	wantCore := make([]int, 0, f.NumClauses()-2)
	for i := 0; i < f.NumClauses()-2; i++ {
		wantCore = append(wantCore, i)
	}
	for _, row := range rows {
		for i, m := range methods {
			cell := row.cells[i]
			req := satcheck.CheckRequest{Formula: f, Format: row.format, Method: m, Trace: row.trace,
				Options: satcheck.CheckOptions{TempDir: t.TempDir()}}
			if row.proof != nil {
				req.Proof = satcheck.ProofBytesSource(row.proof)
			}
			rep, err := satcheck.RunCheck(context.Background(), req)
			label := row.format.String() + "/" + m.Name()
			if cell == 'x' {
				rule := satcheck.CheckablePair(row.format, m)
				if rule == nil || err == nil || err.Error() != rule.Error() {
					t.Errorf("%s: err = %v, want the refusal %v", label, err, rule)
				}
				continue
			}
			if err != nil || !rep.Valid {
				t.Errorf("%s: report %+v, err %v; want valid", label, rep, err)
				continue
			}
			core := rep.Result.CoreClauses
			switch {
			case cell == '-' && core != nil:
				t.Errorf("%s: unexpected core %v", label, core)
			case cell == 'c' && !slices.Equal(core, wantCore):
				t.Errorf("%s: core %v, want %v", label, core, wantCore)
			}
		}
	}
}
