package satcheck_test

import (
	"strings"
	"testing"

	"satcheck"
	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/dp"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/interp"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/proofstat"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
	"satcheck/internal/trim"
)

// TestCrossFeatureMatrix drives every proof consumer (three checkers,
// analyzer, trimmer, TraceCheck exporter+kernel check, interpolator) over traces
// from both proof-producing solvers (CDCL and Davis-Putnam) on one instance.
func TestCrossFeatureMatrix(t *testing.T) {
	ins := gen.Pigeonhole(4)
	f := ins.F

	producers := map[string]func() *trace.MemoryTrace{
		"cdcl": func() *trace.MemoryTrace {
			s, err := solver.New(f, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mt := &trace.MemoryTrace{}
			s.SetTrace(mt)
			if st, err := s.Solve(); err != nil || st != solver.StatusUnsat {
				t.Fatalf("cdcl: st=%v err=%v", st, err)
			}
			return mt
		},
		"cdcl-recursive-min": func() *trace.MemoryTrace {
			s, err := solver.New(f, solver.Options{RecursiveMinimize: true})
			if err != nil {
				t.Fatal(err)
			}
			mt := &trace.MemoryTrace{}
			s.SetTrace(mt)
			if st, err := s.Solve(); err != nil || st != solver.StatusUnsat {
				t.Fatalf("cdcl-rec: st=%v err=%v", st, err)
			}
			return mt
		},
		"davis-putnam": func() *trace.MemoryTrace {
			d, err := dp.New(f, dp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mt := &trace.MemoryTrace{}
			d.SetTrace(mt)
			if st, _, err := d.Solve(); err != nil || st != solver.StatusUnsat {
				t.Fatalf("dp: st=%v err=%v", st, err)
			}
			return mt
		},
	}

	for name, produce := range producers {
		name, produce := name, produce
		t.Run(name, func(t *testing.T) {
			mt := produce()

			// All three checkers.
			for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid} {
				if _, err := satcheck.Check(f, mt, m, satcheck.CheckOptions{}); err != nil {
					t.Fatalf("%v: %v", m, err)
				}
			}
			// Analyzer.
			st, err := proofstat.Analyze(f, mt)
			if err != nil || st.NumLearned == 0 {
				t.Fatalf("analyze: %+v err=%v", st, err)
			}
			// Trim, then re-check the trimmed trace.
			trimmed := &trace.MemoryTrace{}
			if _, err := trim.Trace(f.NumClauses(), mt, trimmed); err != nil {
				t.Fatalf("trim: %v", err)
			}
			if _, err := checker.BreadthFirst(f, trimmed, checker.Options{}); err != nil {
				t.Fatalf("check trimmed: %v", err)
			}
			// TraceCheck export of the trimmed trace, checked in the kernel.
			var sb strings.Builder
			if _, err := tracecheck.Export(f, trimmed, &sb); err != nil {
				t.Fatalf("export: %v", err)
			}
			if _, err := kernelcheck.CheckTraceCheck(f, drat.BytesSource(sb.String()), checker.Options{}); err != nil {
				t.Fatalf("tc check: %v", err)
			}
			// Interpolation over a half/half partition, machine-verified.
			inA := interp.SplitFirstK(f, f.NumClauses()/2)
			it, err := interp.Compute(f, mt, inA)
			if err != nil {
				t.Fatalf("interpolate: %v", err)
			}
			if err := it.VerifyAgainst(f, inA, solver.Options{}); err != nil {
				t.Fatalf("interpolant: %v", err)
			}
		})
	}
}

// TestTraceFormatDocExamples pins the worked examples in
// docs/TRACE_FORMAT.md: they must parse and validate exactly as written.
func TestTraceFormatDocExamples(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2)

	asciiExample := "t res ascii 1\nV 1 1 0\nV 2 1 1\nC 2\n"
	r, err := trace.NewReader(strings.NewReader(asciiExample))
	if err != nil {
		t.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		mt.Events = append(mt.Events, ev)
	}
	for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid} {
		if _, err := satcheck.Check(f, mt, m, satcheck.CheckOptions{}); err != nil {
			t.Fatalf("doc ASCII example rejected by %v: %v", m, err)
		}
	}

	tcExample := "1 1 0 0\n2 -1 2 0 0\n3 -2 0 0\n4 0 3 2 1 0\n"
	if _, err := kernelcheck.CheckTraceCheck(f, drat.BytesSource(tcExample), checker.Options{}); err != nil {
		t.Fatalf("doc TraceCheck example rejected: %v", err)
	}

	// The exporter reproduces the documented TraceCheck lines for this
	// formula (modulo nothing: the derivation is deterministic).
	var sb strings.Builder
	if _, err := tracecheck.Export(f, mt, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != tcExample {
		t.Errorf("exporter output differs from the documented example:\n%q\nvs\n%q", sb.String(), tcExample)
	}
}
