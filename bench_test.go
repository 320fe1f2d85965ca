// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table or figure (the paper's Figures 1-3 are pseudocode; its data lives in
// Tables 1-3). `cmd/experiments` prints the same measurements as formatted,
// row-for-row tables; these testing.B benches make them reproducible under
// `go test -bench`.
//
//	Table 1   -> BenchmarkTable1SolveTraceOff / BenchmarkTable1SolveTraceOn
//	Table 2   -> BenchmarkTable2DepthFirst / BreadthFirst (+ Hybrid, the
//	             paper's proposed future work, and Parallel, its
//	             DAG-scheduled concurrent variant)
//	Table 3   -> BenchmarkTable3CoreIteration (+ Table3Incremental /
//	             Table3IncrementalBMC, the scratch-vs-session ablation of
//	             the incremental subsystem)
//	§4 remark -> BenchmarkTraceEncodingASCII / Binary (+ parse side)
//	Ablations -> BenchmarkAblation* (solver features from DESIGN.md §4)
package satcheck_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"satcheck"
	"satcheck/internal/bmc"
	"satcheck/internal/circuit"
	"satcheck/internal/core"
	"satcheck/internal/dp"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/incremental"
	"satcheck/internal/interp"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/proofstat"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
	"satcheck/internal/trim"
)

// benchInstances is a representative slice of the experiment suite sized so
// each (instance, benchmark) pair runs in milliseconds: one row per domain.
func benchInstances() []gen.Instance {
	return []gen.Instance{
		gen.PipelineALU(8),             // microprocessor verification
		gen.CECAdder(16),               // combinational equivalence
		gen.CECMultiplier(4),           // XOR-heavy CEC (longmult shape)
		gen.BMCCounter(5, 20),          // bounded model checking
		gen.FPGARouting(24, 6, 16, 11), // FPGA routing
		gen.Scheduling(24, 6, 30, 7),   // AI planning
		gen.Pigeonhole(6),              // resolution-hard control
		gen.TseitinCharge(20, 3),       // parity-hard control
	}
}

func solveOnce(b *testing.B, f *satcheck.Formula, opts satcheck.SolverOptions, sink trace.Sink) solver.Stats {
	b.Helper()
	s, err := solver.New(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	if sink != nil {
		s.SetTrace(sink)
	}
	st, err := s.Solve()
	if err != nil {
		b.Fatal(err)
	}
	if st != solver.StatusUnsat {
		b.Fatalf("expected UNSAT, got %v", st)
	}
	return s.Stats()
}

// BenchmarkTable1SolveTraceOff measures plain solving time (the paper's
// "Runtime Trace Off" column).
func BenchmarkTable1SolveTraceOff(b *testing.B) {
	for _, ins := range benchInstances() {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveOnce(b, ins.F, satcheck.SolverOptions{}, nil)
			}
		})
	}
}

// BenchmarkTable1SolveTraceOn measures solving with trace generation (the
// "Runtime Trace On" column); the delta against TraceOff is the paper's
// 1.7-12% overhead.
func BenchmarkTable1SolveTraceOn(b *testing.B) {
	for _, ins := range benchInstances() {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				w := trace.NewASCIIWriter(discardWriter{})
				solveOnce(b, ins.F, satcheck.SolverOptions{}, w)
				bytes = w.BytesWritten()
			}
			b.ReportMetric(float64(bytes)/1024, "traceKB")
		})
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// tracedInstance solves once and returns the in-memory trace for checking
// benchmarks.
func tracedInstance(b *testing.B, ins gen.Instance) (*trace.MemoryTrace, solver.Stats) {
	b.Helper()
	mt := &trace.MemoryTrace{}
	stats := solveOnce(b, ins.F, satcheck.SolverOptions{}, mt)
	return mt, stats
}

func benchCheck(b *testing.B, m satcheck.Method, opts satcheck.CheckOptions) {
	for _, ins := range benchInstances() {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			mt, _ := tracedInstance(b, ins)
			b.ReportAllocs()
			b.ResetTimer()
			var res *satcheck.CheckResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = satcheck.Check(ins.F, mt, m, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.BuiltFraction(), "built%")
			b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
		})
	}
}

// BenchmarkTable2DepthFirst measures the depth-first checker (runtime, peak
// memory, Built% as custom metrics).
func BenchmarkTable2DepthFirst(b *testing.B) {
	benchCheck(b, satcheck.DepthFirst, satcheck.CheckOptions{})
}

// BenchmarkTable2BreadthFirst measures the breadth-first checker.
func BenchmarkTable2BreadthFirst(b *testing.B) {
	benchCheck(b, satcheck.BreadthFirst, satcheck.CheckOptions{})
}

// BenchmarkTable2BreadthFirstCountsOnDisk measures the paper's spilled-
// counters variant of the breadth-first checker.
func BenchmarkTable2BreadthFirstCountsOnDisk(b *testing.B) {
	benchCheck(b, satcheck.BreadthFirst, satcheck.CheckOptions{CountsOnDisk: true, CountRange: 4096})
}

// BenchmarkTable2Hybrid measures the hybrid checker (Ablation B / the
// paper's conclusion).
func BenchmarkTable2Hybrid(b *testing.B) {
	benchCheck(b, satcheck.Hybrid, satcheck.CheckOptions{})
}

// BenchmarkTable2Parallel measures the DAG-scheduled parallel checker at the
// default parallelism (GOMAXPROCS; pin with -cpu). Compare against
// BenchmarkTable2Hybrid: same build set, same verdicts, the wall clock
// divided across the worker pool.
func BenchmarkTable2Parallel(b *testing.B) {
	benchCheck(b, satcheck.Parallel, satcheck.CheckOptions{})
}

// BenchmarkTable2Kernel measures method=kernel end to end on the native
// trace: replaying the trace's resolution chains into hinted clauses plus
// the trusted kernel's hint-following verification, every iteration.
// Compare against BenchmarkTable2Hybrid for the full price of kernel-gated
// validation and against BenchmarkTable2KernelLRAT for the kernel's own
// share of it.
func BenchmarkTable2Kernel(b *testing.B) {
	benchCheck(b, satcheck.Kernel, satcheck.CheckOptions{})
}

// BenchmarkTable2KernelLRAT measures the trusted kernel's steady-state check:
// the trace is bridged to LRAT and parsed once outside the timer, then each
// iteration verifies the hints in the flat-array kernel
// (kernelcheck.CheckLRATProof). This is the checker-vs-checker comparison with
// BenchmarkTable2Hybrid — both consume a prepared proof artifact — and the
// row recorded in BENCH_kernel.json. ReportAllocs pins the allocation
// behavior of the kernel path (a handful of allocs per run for the returned
// Result; the check loop itself is allocation-free, see
// internal/kernel's BenchmarkKernelCheck).
func BenchmarkTable2KernelLRAT(b *testing.B) {
	for _, ins := range benchInstances() {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			mt, _ := tracedInstance(b, ins)
			var buf bytes.Buffer
			if _, err := satcheck.TraceToLRAT(ins.F, mt, &buf, satcheck.CheckOptions{}); err != nil {
				b.Fatal(err)
			}
			proof, err := drat.ParseLRAT(bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *satcheck.CheckResult
			for i := 0; i < b.N; i++ {
				res, err = kernelcheck.CheckLRATProof(ins.F, proof, satcheck.CheckOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
		})
	}
}

// benchCheckDRAT measures clausal (DRUP) proof checking over the same
// instances as the native Table 2 rows, making the DRAT-vs-native cost
// directly comparable in BENCH_table2.json.
func benchCheckDRAT(b *testing.B, m satcheck.Method) {
	for _, ins := range benchInstances() {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			var buf bytes.Buffer
			st, _, err := satcheck.SolveWithDRUP(ins.F, satcheck.SolverOptions{}, satcheck.NewDRATWriter(&buf))
			if err != nil {
				b.Fatal(err)
			}
			if st != satcheck.StatusUnsat {
				b.Fatalf("expected UNSAT, got %v", st)
			}
			src := satcheck.ProofBytesSource(buf.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			var res *satcheck.CheckResult
			for i := 0; i < b.N; i++ {
				res, err = satcheck.CheckDRAT(ins.F, src, m, satcheck.CheckOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.BuiltFraction(), "built%")
			b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
		})
	}
}

// BenchmarkTable2DRATForward measures forward DRUP/DRAT checking (every
// lemma verified in order) — the clausal analogue of BreadthFirst.
func BenchmarkTable2DRATForward(b *testing.B) {
	benchCheckDRAT(b, satcheck.BreadthFirst)
}

// BenchmarkTable2DRATBackward measures backward (core-first) DRAT checking —
// only the lemmas in the terminal conflict cone are verified, with an
// unsatisfiable core as the by-product, the clausal analogue of Hybrid.
func BenchmarkTable2DRATBackward(b *testing.B) {
	benchCheckDRAT(b, satcheck.Hybrid)
}

// BenchmarkTable3CoreIteration measures the full solve→check→extract
// fixed-point iteration of Table 3 (small-core instances, where the paper's
// observation bites).
func BenchmarkTable3CoreIteration(b *testing.B) {
	instances := []gen.Instance{
		gen.FPGARouting(24, 6, 16, 11),
		gen.Scheduling(24, 6, 30, 7),
		gen.Pigeonhole(5),
	}
	for _, ins := range instances {
		ins := ins
		b.Run(ins.Name, func(b *testing.B) {
			var res *core.IterateResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Iterate(ins.F, 30, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			last := res.Stats[len(res.Stats)-1]
			b.ReportMetric(float64(last.NumClauses), "coreClauses")
			b.ReportMetric(float64(res.Iterations), "iterations")
		})
	}
}

// BenchmarkTable3Incremental compares the Table 3 fixed-point core iteration
// run from scratch each round (solve→check→extract on a fresh solver per
// iteration) against one persistent selector-guarded session whose learned
// clauses survive across iterations. Same instances as
// BenchmarkTable3CoreIteration; the scratch/session ratio is the recorded
// incremental ablation. Both paths validate every UNSAT answer through a
// native checker.
func BenchmarkTable3Incremental(b *testing.B) {
	instances := []gen.Instance{
		gen.FPGARouting(24, 6, 16, 11),
		gen.Scheduling(24, 6, 30, 7),
		gen.Pigeonhole(5),
	}
	for _, ins := range instances {
		ins := ins
		b.Run(ins.Name+"/scratch", func(b *testing.B) {
			var res *core.IterateResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Iterate(ins.F, 30, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iterations), "iterations")
		})
		b.Run(ins.Name+"/session", func(b *testing.B) {
			var res *core.IterateResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.IterateIncremental(ins.F, 30, incremental.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iterations), "iterations")
		})
	}
}

// BenchmarkTable3IncrementalBMC compares bound-by-bound model checking from
// scratch (re-encode and re-solve every unrolling) against the incremental
// session (frames extended in place, per-bound properties assumed via
// activation literals, learned clauses shared across bounds). The counter's
// bad state first becomes reachable at the last bound, so the run crosses
// many validated UNSAT answers before the terminal SAT; the shifter is UNSAT
// at every bound.
func BenchmarkTable3IncrementalBMC(b *testing.B) {
	cases := []struct {
		name     string
		seq      *circuit.Sequential
		maxBound int
	}{
		// Deep unrolling: scratch re-encodes a growing prefix at every bound
		// (quadratic total frames), the session extends it once (linear).
		{"bmc-counter-6b", gen.BMCCounterSequential(6, 30), 30},
		// Shallow unrolling: frames are cheap to rebuild, so the session's
		// per-answer validation overhead is visible — the honest lower end
		// of the ablation.
		{"bmc-shift-4w", gen.BMCShiftRegisterSequential(4), 10},
	}
	for _, tc := range cases {
		tc := tc
		for _, mode := range []struct {
			name string
			opts bmc.Options
		}{
			{"scratch", bmc.Options{}},
			{"session", bmc.Options{Incremental: true}},
		} {
			mode := mode
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				var results []*bmc.BoundResult
				for i := 0; i < b.N; i++ {
					var err error
					results, err = bmc.Run(tc.seq, tc.maxBound, mode.opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(results)), "bounds")
			})
		}
	}
}

// BenchmarkTraceEncodingASCII / Binary measure the §4 remark: binary traces
// are 2-3x smaller and parse faster ("a significant amount of run time for
// the checker is spent on parsing").
func BenchmarkTraceEncodingASCII(b *testing.B) {
	benchEncoding(b, func() trace.Sink { return trace.NewASCIIWriter(discardWriter{}) })
}

// BenchmarkTraceEncodingBinary is the binary-format counterpart.
func BenchmarkTraceEncodingBinary(b *testing.B) {
	benchEncoding(b, func() trace.Sink { return trace.NewBinaryWriter(discardWriter{}) })
}

func benchEncoding(b *testing.B, mk func() trace.Sink) {
	ins := gen.Pigeonhole(7)
	mt, _ := tracedInstance(b, ins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mt.Replay(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceParseASCII / Binary measure decode cost, the checker-side
// half of the encoding ablation.
func BenchmarkTraceParseASCII(b *testing.B) {
	benchParse(b, func(mt *trace.MemoryTrace) ([]byte, error) {
		var buf writableBuffer
		w := trace.NewASCIIWriter(&buf)
		if err := mt.Replay(w); err != nil {
			return nil, err
		}
		return buf.data, nil
	})
}

// BenchmarkTraceParseBinary is the binary-format counterpart.
func BenchmarkTraceParseBinary(b *testing.B) {
	benchParse(b, func(mt *trace.MemoryTrace) ([]byte, error) {
		var buf writableBuffer
		w := trace.NewBinaryWriter(&buf)
		if err := mt.Replay(w); err != nil {
			return nil, err
		}
		return buf.data, nil
	})
}

type writableBuffer struct{ data []byte }

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func benchParse(b *testing.B, encode func(*trace.MemoryTrace) ([]byte, error)) {
	ins := gen.Pigeonhole(7)
	mt, _ := tracedInstance(b, ins)
	data, err := encode(mt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader(bytesReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
}

func bytesReader(data []byte) *sliceByteReader { return &sliceByteReader{data: data} }

type sliceByteReader struct {
	data []byte
	pos  int
}

func (r *sliceByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

var errEOF = fmt.Errorf("EOF")

// BenchmarkAblation* measure the solver-feature ablations of DESIGN.md §4
// (conflict-clause minimization, learned-clause deletion, restarts) on a
// search-heavy instance.
func BenchmarkAblationSolverFeatures(b *testing.B) {
	ins := gen.Pigeonhole(7)
	configs := []struct {
		name string
		opts satcheck.SolverOptions
	}{
		{"default", satcheck.SolverOptions{}},
		{"no-minimize", satcheck.SolverOptions{DisableMinimize: true}},
		{"recursive-min", satcheck.SolverOptions{RecursiveMinimize: true}},
		{"no-delete", satcheck.SolverOptions{DisableReduce: true}},
		{"no-restart", satcheck.SolverOptions{DisableRestarts: true}},
		{"no-phase-saving", satcheck.SolverOptions{DisablePhaseSaving: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var stats solver.Stats
			for i := 0; i < b.N; i++ {
				stats = solveOnce(b, ins.F, cfg.opts, nil)
			}
			b.ReportMetric(float64(stats.Conflicts), "conflicts")
			b.ReportMetric(float64(stats.Learned), "learned")
		})
	}
}

// BenchmarkCheckerMemoryDiscipline reports the deterministic peak-memory
// model of the checkers side by side on one trace — the Table 2 memory
// columns as a single bench.
func BenchmarkCheckerMemoryDiscipline(b *testing.B) {
	ins := gen.Pigeonhole(7)
	mt, _ := tracedInstance(b, ins)
	for _, m := range []satcheck.Method{satcheck.DepthFirst, satcheck.BreadthFirst, satcheck.Hybrid, satcheck.Parallel} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var res *satcheck.CheckResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = satcheck.Check(ins.F, mt, m, satcheck.CheckOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
		})
	}
}

// BenchmarkBaselineDPBlowup measures the paper's §1 motivation for DLL over
// the original Davis-Putnam procedure: DP's resolution-based variable
// elimination suffers "prohibitive space requirements". The custom metrics
// report peak simultaneously-active clauses for DP vs the CDCL solver's
// peak live literals on the same instance.
func BenchmarkBaselineDPBlowup(b *testing.B) {
	// Peak active clauses grows ~20x per added hole (29 -> 198 -> 3698 for
	// holes 3..5); hole count 6 already needs minutes and hundreds of
	// thousands of clauses — the paper's point — so the bench stops at the
	// sizes that terminate quickly.
	for _, holes := range []int{3, 4, 5} {
		ins := gen.Pigeonhole(holes)
		b.Run(ins.Name+"/dp", func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				s, err := dp.New(ins.F, dp.Options{MaxClauses: 500000})
				if err != nil {
					b.Fatal(err)
				}
				st, _, err := s.Solve()
				if err != nil {
					b.Fatal(err)
				}
				if st != solver.StatusUnsat {
					b.Fatalf("status %v", st)
				}
				peak = s.Stats().PeakClauses
			}
			b.ReportMetric(float64(peak), "peakClauses")
		})
		b.Run(ins.Name+"/cdcl", func(b *testing.B) {
			var stats solver.Stats
			for i := 0; i < b.N; i++ {
				stats = solveOnce(b, ins.F, satcheck.SolverOptions{}, nil)
			}
			b.ReportMetric(float64(stats.PeakLiveLits), "peakLiveLits")
		})
	}
}

// BenchmarkDPProofCheck measures validating a Davis-Putnam refutation with
// the breadth-first checker — the checker is solver-agnostic.
func BenchmarkDPProofCheck(b *testing.B) {
	ins := gen.Pigeonhole(5)
	s, err := dp.New(ins.F, dp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	if st, _, err := s.Solve(); err != nil || st != solver.StatusUnsat {
		b.Fatalf("st=%v err=%v", st, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := satcheck.Check(ins.F, mt, satcheck.BreadthFirst, satcheck.CheckOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCheckExport measures converting a native trace to the
// self-contained TraceCheck clause format.
func BenchmarkTraceCheckExport(b *testing.B) {
	ins := gen.Pigeonhole(6)
	mt, _ := tracedInstance(b, ins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracecheck.Export(ins.F, mt, discardWriter{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofStats measures the resolution-graph analytics pass.
func BenchmarkProofStats(b *testing.B) {
	ins := gen.Pigeonhole(6)
	mt, _ := tracedInstance(b, ins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proofstat.Analyze(ins.F, mt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceEncodingGzip measures the compressed trace writer
// (binary + gzip), the most compact configuration.
func BenchmarkTraceEncodingGzip(b *testing.B) {
	ins := gen.Pigeonhole(7)
	mt, _ := tracedInstance(b, ins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gz := trace.NewGzipSink(discardWriter{}, func(w io.Writer) trace.Sink { return trace.NewBinaryWriter(w) })
		if err := mt.Replay(gz); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrim measures trace trimming (backward reachability + renumbered
// re-emission).
func BenchmarkTrim(b *testing.B) {
	ins := gen.CECAdder(16)
	mt, _ := tracedInstance(b, ins)
	b.ResetTimer()
	var stats *trim.Stats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = trim.Trace(ins.F.NumClauses(), mt, trace.Discard{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*stats.KeptFraction(), "kept%")
}

// BenchmarkCheckTrimmedVsFull compares breadth-first checking of the
// original vs trimmed trace — the payoff of zproof trim.
func BenchmarkCheckTrimmedVsFull(b *testing.B) {
	ins := gen.CECAdder(16)
	mt, _ := tracedInstance(b, ins)
	trimmed := &trace.MemoryTrace{}
	if _, err := trim.Trace(ins.F.NumClauses(), mt, trimmed); err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := satcheck.Check(ins.F, mt, satcheck.BreadthFirst, satcheck.CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trimmed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := satcheck.Check(ins.F, trimmed, satcheck.BreadthFirst, satcheck.CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInterpolation measures Craig-interpolant construction from a
// checked proof (McMillan's rules over the resolution DAG).
func BenchmarkInterpolation(b *testing.B) {
	ins := gen.CECAdder(12)
	mt, _ := tracedInstance(b, ins)
	inA := interp.SplitFirstK(ins.F, ins.F.NumClauses()/2)
	b.ResetTimer()
	var it *interp.Interpolant
	for i := 0; i < b.N; i++ {
		var err error
		it, err = interp.Compute(ins.F, mt, inA)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(it.Gates), "gates")
}
