package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"satcheck/internal/bdd"
	"satcheck/internal/certify"
	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/dp"
	"satcheck/internal/drat"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/solver"
	"satcheck/internal/testutil"
	"satcheck/internal/trace"
)

// roundReport accumulates what one round exercised and found.
type roundReport struct {
	instances, sat, unsat, unknown int
	dpCompared, bruteCompared      int
	bddCompared                    int
	cells                          map[string]int
	native, clausal, lrat, er      MutationStats
	failures                       []Failure
	synthetic                      []Repro // inject-mode repros (not failures)
}

// pendingFailure is a detected violation awaiting minimization.
type pendingFailure struct {
	Failure
	f    *cnf.Formula
	pred func(*cnf.Formula) bool // reproduces the violation; nil = not shrinkable
}

// round is the per-round state.
type round struct {
	cfg     Config
	idx     int
	rng     *rand.Rand
	rep     *roundReport
	pending []pendingFailure
}

// runRound generates one instance and drives it through the full oracle
// pipeline. The done flag is set once inject mode has produced its repro, so
// sibling workers can stop early.
func runRound(cfg Config, idx int, done *atomic.Bool) *roundReport {
	r := &round{
		cfg: cfg,
		idx: idx,
		// Mix the seed and round so per-round streams are independent but
		// fully determined by (Seed, idx), not by worker scheduling.
		rng: rand.New(rand.NewSource(cfg.Seed*0x9E3779B1 + int64(idx))),
		rep: &roundReport{cells: map[string]int{}},
	}
	if cfg.Inject != "" {
		r.runInjectRound(done)
	} else {
		ins := instanceForRound(r.rng)
		r.runInstance(ins)
	}
	r.finalize()
	return r.rep
}

// runRepro replays one saved regression file through the pipeline.
func runRepro(cfg Config) *roundReport {
	r := &round{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), rep: &roundReport{cells: map[string]int{}}}
	f, err := cnf.ParseDimacsFile(cfg.ReproFile)
	if err != nil {
		r.fail("harness-error", cfg.ReproFile, fmt.Sprintf("parse repro: %v", err), nil, nil)
		r.finalize()
		return r.rep
	}
	ins := gen.Instance{Name: cfg.ReproFile, Domain: "regression", F: f}
	if cfg.Inject != "" {
		// Replay the synthetic fault against the saved instance: the repro
		// holds iff the injected mutant is still rejected.
		r.rep.instances++
		if !r.injectOnce(ins) {
			r.fail("harness-error", ins.Name,
				fmt.Sprintf("repro did not reproduce: mutation %q no longer applies or is no longer rejected", cfg.Inject), nil, nil)
		} else {
			fmt.Fprintf(cfg.Log, "repro %s: mutation %q still rejected (reproduces)\n", cfg.ReproFile, cfg.Inject)
		}
	} else {
		r.runInstance(ins)
	}
	r.finalize()
	return r.rep
}

// fail records a violation. pred, when non-nil, re-establishes the violation
// on a sub-formula and drives the minimizer.
func (r *round) fail(kind, instance, detail string, f *cnf.Formula, pred func(*cnf.Formula) bool) {
	r.pending = append(r.pending, pendingFailure{
		Failure: Failure{Kind: kind, Round: r.idx, Instance: instance, Detail: detail},
		f:       f,
		pred:    pred,
	})
}

// finalize minimizes and records every pending failure.
func (r *round) finalize() {
	for _, p := range r.pending {
		if p.f != nil && p.pred != nil {
			p.Failure.Repro = r.minimizeAndWrite(p.Failure, p.f, p.pred, "")
		}
		r.rep.failures = append(r.rep.failures, p.Failure)
	}
	r.pending = nil
}

// instanceForRound picks this round's instance: mostly random k-SAT near the
// 3-SAT phase transition (a mix of SAT and UNSAT outcomes), the rest small
// members of the structured generator families so every proof shape the
// paper's evaluation exercises shows up under fuzzing too.
func instanceForRound(rng *rand.Rand) gen.Instance {
	switch rng.Intn(14) {
	case 0:
		return gen.Pigeonhole(4 + rng.Intn(2))
	case 1:
		return gen.TseitinCharge(8+2*rng.Intn(3), rng.Int63())
	case 2:
		return gen.CECAdder(4 + rng.Intn(4))
	case 3:
		return gen.CECParity(6 + rng.Intn(5))
	case 4:
		// BMCCounter requires steps+1 < 2^bits.
		return gen.BMCCounter(4+rng.Intn(2), 6+rng.Intn(6))
	case 5:
		return gen.BMCShiftRegister(4+rng.Intn(3), 6+rng.Intn(4))
	case 6:
		return gen.Scheduling(8+rng.Intn(6), 3+rng.Intn(2), 6+rng.Intn(8), rng.Int63())
	case 7:
		return gen.FPGARouting(8+rng.Intn(6), 3+rng.Intn(2), 6+rng.Intn(4), rng.Int63())
	case 8:
		return plantedInstance(rng)
	case 9:
		return gen.XorMiter(5 + rng.Intn(6))
	case 10:
		return gen.XorRing(6+rng.Intn(8), rng.Intn(2) == 1, rng.Int63())
	default:
		nv := 12 + rng.Intn(16)
		ratio := 3.8 + rng.Float64() // 3.8 .. 4.8, straddling ~4.27
		return gen.RandomKSAT(nv, 3, ratio, rng.Int63())
	}
}

// plantedInstance hides a small provably-UNSAT core (a pigeonhole formula on
// fresh variables) inside a sea of satisfiable random padding, with the
// clauses shuffled together. The minimal repro of any UNSAT-preserving
// failure is the planted core — a small fraction of the instance — which is
// exactly the shape the ddmin minimizer must recover.
func plantedInstance(rng *rand.Rand) gen.Instance {
	pad := gen.RandomKSAT(50+rng.Intn(20), 3, 3.0+0.4*rng.Float64(), rng.Int63())
	core := gen.Pigeonhole(3 + rng.Intn(2))
	off := pad.F.NumVars
	f := cnf.NewFormula(off + core.F.NumVars)
	clauses := make([]cnf.Clause, 0, pad.F.NumClauses()+core.F.NumClauses())
	for _, c := range pad.F.Clauses {
		clauses = append(clauses, c.Clone())
	}
	for _, c := range core.F.Clauses {
		shifted := make(cnf.Clause, len(c))
		for i, l := range c {
			shifted[i] = cnf.NewLit(l.Var()+cnf.Var(off), l.IsNeg())
		}
		clauses = append(clauses, shifted)
	}
	rng.Shuffle(len(clauses), func(i, j int) { clauses[i], clauses[j] = clauses[j], clauses[i] })
	for _, c := range clauses {
		f.Add(c)
	}
	return gen.Instance{
		Name:        fmt.Sprintf("planted-%s-in-%s", core.Name, pad.Name),
		Domain:      "planted core",
		F:           f,
		ExpectUnsat: true,
	}
}

// solveArtifacts runs the instrumented CDCL solver once, recording both the
// native resolution trace and the ASCII DRUP proof.
func solveArtifacts(f *cnf.Formula, maxConflicts int64) (solver.Status, cnf.Model, *trace.MemoryTrace, []byte, error) {
	s, err := solver.New(f, solver.Options{MaxConflicts: maxConflicts})
	if err != nil {
		return solver.StatusUnknown, nil, nil, nil, err
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	var proofBuf bytes.Buffer
	dw := drat.NewWriter(&proofBuf)
	s.SetProofSink(dw)
	st, err := s.Solve()
	if err != nil {
		return st, nil, nil, nil, err
	}
	return st, s.Model(), mt, proofBuf.Bytes(), nil
}

// runInstance drives one instance through verdict cross-checking and, on
// UNSAT, the full checker×format matrix plus mutation testing.
func (r *round) runInstance(ins gen.Instance) {
	r.rep.instances++
	f := ins.F
	st, model, mt, dratASCII, err := solveArtifacts(f, r.cfg.MaxConflicts)
	if err != nil {
		r.fail("harness-error", ins.Name, fmt.Sprintf("solver: %v", err), nil, nil)
		return
	}
	if st == solver.StatusUnknown {
		r.rep.unknown++
		return
	}

	r.crossCheckVerdict(ins, st, model)
	r.checkBDD(ins, st)

	switch st {
	case solver.StatusSat:
		r.rep.sat++
		if bad, ok := cnf.VerifyModel(f, model); !ok {
			r.fail("model-invalid", ins.Name,
				fmt.Sprintf("CDCL model fails clause %d", bad), f, nil)
		}
	case solver.StatusUnsat:
		r.rep.unsat++
		if ok := r.checkMatrix(ins, mt, dratASCII); ok {
			r.testMutations(ins, mt, dratASCII)
		}
	}

	r.checkIncremental(ins)
}

// crossCheckVerdict compares the CDCL verdict against the DP reference
// procedure and, on small instances, a brute-force oracle.
// dpBudget bounds the DP reference so one pathological random instance
// (where elimination stays under the clause cap but the per-step work
// explodes) cannot stall a fuzzing round; over-budget runs are skipped, not
// failed — the paper's point is precisely that DP is often infeasible.
var dpBudget = dp.Options{MaxClauses: 100000, MaxResolutions: 500000}

func (r *round) crossCheckVerdict(ins gen.Instance, st solver.Status, model cnf.Model) {
	f := ins.F
	if f.NumVars <= 13 {
		r.rep.bruteCompared++
		sat, _ := testutil.BruteForceSat(f)
		want := solver.StatusSat
		if !sat {
			want = solver.StatusUnsat
		}
		if st != want {
			r.fail("verdict-disagreement", ins.Name,
				fmt.Sprintf("CDCL says %v, brute force says %v", st, want), f,
				r.predBruteDisagrees())
			return
		}
	}
	if f.NumClauses() > 700 || f.NumVars > 160 {
		return // DP's space blowup makes the reference impractical here
	}
	d, err := dp.New(f, dpBudget)
	if err != nil {
		r.fail("harness-error", ins.Name, fmt.Sprintf("dp.New: %v", err), nil, nil)
		return
	}
	dpSt, dpModel, err := d.Solve()
	if err != nil {
		if errors.Is(err, dp.ErrSpace) || errors.Is(err, dp.ErrBudget) {
			return // no verdict to compare
		}
		r.fail("harness-error", ins.Name, fmt.Sprintf("dp.Solve: %v", err), nil, nil)
		return
	}
	r.rep.dpCompared++
	if dpSt != st {
		r.fail("verdict-disagreement", ins.Name,
			fmt.Sprintf("CDCL says %v, DP says %v", st, dpSt), f, r.predDPDisagrees())
		return
	}
	if dpSt == solver.StatusSat {
		if bad, ok := cnf.VerifyModel(f, dpModel); !ok {
			r.fail("model-invalid", ins.Name,
				fmt.Sprintf("DP model fails clause %d", bad), f, nil)
		}
	}

	// When DP proves UNSAT it derived the empty clause by resolution; its
	// trace must satisfy the same independent checker (the checker is
	// solver-agnostic — dp package docs, purpose 2).
	if dpSt == solver.StatusUnsat && ins.F.NumClauses() <= 400 {
		d2, err := dp.New(f, dpBudget)
		if err != nil {
			return
		}
		dpTrace := &trace.MemoryTrace{}
		d2.SetTrace(dpTrace)
		if st2, _, err := d2.Solve(); err == nil && st2 == solver.StatusUnsat {
			if _, err := checker.Hybrid(f, dpTrace, checker.Options{}); err != nil {
				r.fail("valid-proof-rejected", ins.Name,
					fmt.Sprintf("hybrid rejected DP's resolution trace: %v", err), f, nil)
			} else {
				r.cell("dp-trace/hybrid")
			}
		}
	}
}

func (r *round) cell(name string) { r.rep.cells[name]++ }

// bddLimits gate the fourth oracle: the BDD backend's memory is exponential
// in the wrong variable order, so large instances run under a node budget and
// very large ones are skipped outright. Budget-exhausted solves yield no
// verdict and are skipped, not failed — like the DP reference.
const (
	bddMaxVars    = 64
	bddMaxClauses = 600
	bddNodeBudget = 1 << 16
	// bddMaxProofLines gates the search-based DRAT cross-checks and the ER
	// mutation battery: re-deriving a RAT-heavy ER proof without hints is
	// quadratic in its length (~0.5s at 20k lines, minutes at 400k), while
	// the hint-following bridge check stays linear and runs on every proof.
	bddMaxProofLines = 20000
)

// checkBDD runs the BDD backend as a fourth verdict oracle. Its UNSAT proofs
// are extended resolution, a strictly stronger system than the CDCL trace —
// so they get their own checking path: the ER→LRAT bridge plus the DRAT
// checker on the hint-stripped clause sequence, then the ER mutation battery.
// SAT models are clause-checked like every other model in the harness.
func (r *round) checkBDD(ins gen.Instance, st solver.Status) {
	f := ins.F
	if f.NumVars > bddMaxVars || f.NumClauses() > bddMaxClauses {
		return
	}
	res, err := bdd.Solve(f, bdd.Options{Proof: true, MaxNodes: bddNodeBudget})
	if err != nil {
		r.fail("harness-error", ins.Name, fmt.Sprintf("bdd.Solve: %v", err), nil, nil)
		return
	}
	if res.Status == solver.StatusUnknown {
		return // node budget exhausted: no verdict to compare
	}
	r.rep.bddCompared++
	if res.Status != st {
		r.fail("verdict-disagreement", ins.Name,
			fmt.Sprintf("CDCL says %v, BDD says %v", st, res.Status), f, r.predBDDDisagrees())
		return
	}
	switch res.Status {
	case solver.StatusSat:
		if bad, ok := cnf.VerifyModel(f, res.Model); !ok {
			r.fail("model-invalid", ins.Name,
				fmt.Sprintf("BDD model fails clause %d", bad), f, nil)
		} else {
			r.cell("bdd/model")
		}
	case solver.StatusUnsat:
		if _, err := bdd.CheckER(f, res.Proof, checker.Options{}); err != nil {
			r.fail("valid-proof-rejected", ins.Name,
				fmt.Sprintf("ER→LRAT bridge rejected the BDD backend's own proof: %v", err),
				f, r.predValidERRejected())
			return
		}
		r.cell("er/bridge")
		if len(res.Proof.Lines) > bddMaxProofLines {
			return
		}
		stripped := stepsToBytes(bdd.ToDRAT(res.Proof).Steps, false)
		for _, mode := range []drat.Mode{drat.Forward, drat.Backward} {
			if _, err := drat.Check(f, drat.BytesSource(stripped), mode, checker.Options{}); err != nil {
				r.fail("valid-proof-rejected", ins.Name,
					fmt.Sprintf("%v DRAT rejected the BDD backend's hint-stripped ER proof: %v", mode, err), f, nil)
				return
			}
			r.cell(fmt.Sprintf("er-drat/%v", mode))
		}
		r.testERMutants(ins, res.Proof)
	}
}

// predBDDDisagrees reproduces a CDCL-vs-BDD verdict disagreement.
func (r *round) predBDDDisagrees() func(*cnf.Formula) bool {
	return func(sub *cnf.Formula) bool {
		st, _, _, _, err := solveArtifacts(sub, minConflicts)
		if err != nil || st == solver.StatusUnknown {
			return false
		}
		res, err := bdd.Solve(sub, bdd.Options{MaxNodes: bddNodeBudget})
		if err != nil || res.Status == solver.StatusUnknown {
			return false
		}
		return res.Status != st
	}
}

// predValidERRejected reproduces "bridge rejects the BDD backend's own proof".
func (r *round) predValidERRejected() func(*cnf.Formula) bool {
	return func(sub *cnf.Formula) bool {
		res, err := bdd.Solve(sub, bdd.Options{Proof: true, MaxNodes: bddNodeBudget})
		if err != nil || res.Status != solver.StatusUnsat {
			return false
		}
		_, cerr := bdd.CheckER(sub, res.Proof, checker.Options{})
		return cerr != nil
	}
}

// methodCheck runs one native checker by name.
func methodCheck(m string, f *cnf.Formula, src trace.Source, opts checker.Options) (*checker.Result, error) {
	switch m {
	case "depth-first":
		return checker.DepthFirst(f, src, opts)
	case "breadth-first":
		return checker.BreadthFirst(f, src, opts)
	case "hybrid":
		return checker.Hybrid(f, src, opts)
	case "parallel":
		opts.Parallelism = 2
		return checker.Parallel(f, src, opts)
	}
	panic("harness: unknown method " + m)
}

var nativeMethods = []string{"depth-first", "breadth-first", "hybrid", "parallel"}

// checkMatrix fans a verified-UNSAT run through every checker×format cell.
// It returns false when the proof artifacts themselves are broken (mutation
// testing would then only re-report the same failure).
func (r *round) checkMatrix(ins gen.Instance, mt *trace.MemoryTrace, dratASCII []byte) bool {
	f := ins.F
	ok := true
	results := map[string]*checker.Result{}
	for _, m := range nativeMethods {
		res, err := methodCheck(m, f, mt, checker.Options{})
		if err != nil {
			r.fail("valid-proof-rejected", ins.Name,
				fmt.Sprintf("native %s rejected a valid trace: %v", m, err), f,
				r.predValidTraceRejected(m))
			ok = false
			continue
		}
		results[m] = res
		r.cell("native/" + m)
	}

	// Unsat-core invariants: hybrid's mark phase conservatively includes every
	// level-0 antecedent, so its core is a superset of depth-first's (which
	// discovers what the final derivation actually touches — hybrid.go doc);
	// hybrid and parallel walk the identical reachable set, so their cores
	// must match exactly; and the parallel checker's schedule-dependent peak
	// must stay within its deterministic bound.
	if df, hy := results["depth-first"], results["hybrid"]; df != nil && hy != nil {
		if !subsetInts(df.CoreClauses, hy.CoreClauses) {
			r.fail("core-mismatch", ins.Name,
				fmt.Sprintf("depth-first core (%d clauses) not a subset of hybrid core (%d clauses)",
					len(df.CoreClauses), len(hy.CoreClauses)), f, nil)
			ok = false
		}
	}
	if hy, pa := results["hybrid"], results["parallel"]; hy != nil && pa != nil {
		if !equalInts(hy.CoreClauses, pa.CoreClauses) {
			r.fail("core-mismatch", ins.Name,
				fmt.Sprintf("hybrid core (%d clauses) != parallel core (%d clauses)",
					len(hy.CoreClauses), len(pa.CoreClauses)), f, nil)
			ok = false
		}
		if pa.PeakMemBoundWords > 0 && pa.PeakMemWords > pa.PeakMemBoundWords {
			r.fail("peak-mem-bound-violated", ins.Name,
				fmt.Sprintf("parallel peak %d words exceeds bound %d", pa.PeakMemWords, pa.PeakMemBoundWords), f, nil)
			ok = false
		}
	}

	// Clausal formats: ASCII DRAT forward/backward, the binary re-encoding
	// of the same proof, and LRAT obtained from both bridges.
	proof, err := drat.Load(drat.BytesSource(dratASCII))
	if err != nil {
		r.fail("harness-error", ins.Name, fmt.Sprintf("parse own DRAT proof: %v", err), nil, nil)
		return false
	}
	encodings := []struct {
		label string
		bytes []byte
	}{
		{"drat-ascii", dratASCII},
		{"drat-binary", stepsToBytes(proof.Steps, true)},
	}
	for _, enc := range encodings {
		for _, mode := range []drat.Mode{drat.Forward, drat.Backward} {
			if _, err := drat.Check(f, drat.BytesSource(enc.bytes), mode, checker.Options{}); err != nil {
				r.fail("valid-proof-rejected", ins.Name,
					fmt.Sprintf("%s %v rejected a valid DRUP proof: %v", enc.label, mode, err), f,
					r.predValidDRATRejected(mode))
				ok = false
				continue
			}
			r.cell(fmt.Sprintf("%s/%v", enc.label, mode))
		}
	}

	var lratBuf bytes.Buffer
	if _, err := kernelcheck.TraceToLRAT(f, mt, &lratBuf, checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("trace→LRAT bridge rejected a valid trace: %v", err), f, nil)
		ok = false
	} else if _, err := kernelcheck.CheckLRAT(f, drat.BytesSource(lratBuf.Bytes()), checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("LRAT checker rejected the trace bridge's own emission: %v", err), f, nil)
		ok = false
	} else {
		r.cell("lrat/from-trace")
	}

	var lratBuf2 bytes.Buffer
	if _, err := kernelcheck.DRATToLRAT(f, drat.BytesSource(dratASCII), &lratBuf2, checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("DRAT→LRAT bridge rejected a valid DRUP proof: %v", err), f, nil)
		ok = false
	} else if _, err := kernelcheck.CheckLRAT(f, drat.BytesSource(lratBuf2.Bytes()), checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("LRAT checker rejected the DRAT bridge's own emission: %v", err), f, nil)
		ok = false
	} else {
		r.cell("lrat/from-drat")
	}

	// Trusted-kernel cells: the same trace and DRAT proof, but gated end to
	// end by the flat-array kernel (the trace's own resolve sources as hints
	// and forward DRAT hint recording, both verified by internal/kernel),
	// with the kernel's backward hint-closure core as the by-product.
	if res, err := kernelcheck.KernelCheckTrace(f, mt, checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("trusted kernel rejected a valid trace: %v", err), f, nil)
		ok = false
	} else if bad := badCore(res.CoreClauses, f.NumClauses()); bad != "" {
		r.fail("core-mismatch", ins.Name, "kernel trace core "+bad, f, nil)
		ok = false
	} else {
		r.cell("kernel/from-trace")
	}
	if res, err := kernelcheck.KernelCheckDRAT(f, drat.BytesSource(dratASCII), checker.Options{}); err != nil {
		r.fail("valid-proof-rejected", ins.Name,
			fmt.Sprintf("trusted kernel rejected a valid DRUP proof: %v", err), f, nil)
		ok = false
	} else if bad := badCore(res.CoreClauses, f.NumClauses()); bad != "" {
		r.fail("core-mismatch", ins.Name, "kernel DRAT core "+bad, f, nil)
		ok = false
	} else {
		r.cell("kernel/from-drat")
	}

	// Out-of-core cell: the trace bridge's LRAT emission re-verified window
	// by window (internal/ooc) at the smallest budget whose resident state
	// fits, so real instances actually shift and spill. The windowed verdict,
	// statistics, and core must be identical to the unconstrained kernel's
	// on the same bytes.
	if lratBuf.Len() > 0 {
		kref, err := kernelcheck.CheckLRATCore(f, drat.BytesSource(lratBuf.Bytes()), checker.Options{})
		if err == nil {
			var ores *checker.Result
			oerr := error(nil)
			for _, budget := range []int64{256 << 10, 1 << 20, 4 << 20, 64 << 20} {
				ores, oerr = ooc.CheckLRAT(f, drat.BytesSource(lratBuf.Bytes()),
					checker.Options{MemBudgetBytes: budget})
				var ce *checker.CheckError
				if oerr != nil && errors.As(oerr, &ce) && ce.Kind == checker.FailMemoryLimit {
					continue // resident state alone outgrew this budget; escalate
				}
				break
			}
			switch {
			case oerr != nil:
				r.fail("valid-proof-rejected", ins.Name,
					fmt.Sprintf("out-of-core checker rejected the kernel-validated LRAT emission: %v", oerr), f, nil)
				ok = false
			case !equalInts(kref.CoreClauses, ores.CoreClauses) ||
				kref.ClausesBuilt != ores.ClausesBuilt || kref.ResolutionSteps != ores.ResolutionSteps:
				r.fail("core-mismatch", ins.Name,
					fmt.Sprintf("out-of-core result diverges from kernel: core %d vs %d, built %d vs %d, steps %d vs %d",
						len(ores.CoreClauses), len(kref.CoreClauses), ores.ClausesBuilt, kref.ClausesBuilt,
						ores.ResolutionSteps, kref.ResolutionSteps), f, nil)
				ok = false
			case ores.PeakMemWords > ores.PeakMemBoundWords:
				r.fail("peak-mem-bound-violated", ins.Name,
					fmt.Sprintf("ooc peak %d words exceeds its budget bound %d", ores.PeakMemWords, ores.PeakMemBoundWords), f, nil)
				ok = false
			default:
				r.cell("ooc/from-trace")
			}
		}
	}

	// Dual-certification oracle: every cell above is an individual checker;
	// this one is the fail-closed composition. With both proof artifacts
	// valid, the Certifier must produce CERTIFIED_UNSAT — a CERTIFY_FAIL
	// here is a false rejection of a proof the matrix just validated, and
	// its verdict must equal the conjunction of the two pipelines.
	if ok {
		bundle, err := certifyArtifacts(f, mt, dratASCII)
		switch {
		case err != nil:
			r.fail("harness-error", ins.Name, fmt.Sprintf("certify oracle: %v", err), nil, nil)
		case !bundle.Certified():
			r.fail("valid-proof-rejected", ins.Name,
				fmt.Sprintf("dual certification failed on a matrix-validated run: %s", bundle.Reason), f, nil)
			ok = false
		default:
			r.cell("certify/dual")
		}
	}
	return ok
}

// harnessCertifier is the shared fail-closed Certifier behind the certify
// oracle cells; construction with a nil signer cannot fail outside of
// entropy exhaustion, which is worth a panic in a test harness.
var harnessCertifier = func() *certify.Certifier {
	c, err := certify.New(certify.Config{})
	if err != nil {
		panic("harness: certifier init: " + err.Error())
	}
	return c
}()

// certifyArtifacts serializes one run's artifacts and runs the dual
// certification pipeline over them.
func certifyArtifacts(f *cnf.Formula, mt *trace.MemoryTrace, dratASCII []byte) (*certify.Bundle, error) {
	var fb, tb bytes.Buffer
	if err := cnf.WriteDimacs(&fb, f); err != nil {
		return nil, err
	}
	if err := mt.Replay(trace.NewASCIIWriter(&tb)); err != nil {
		return nil, err
	}
	return harnessCertifier.Certify(context.Background(), certify.Request{
		FormulaBytes: fb.Bytes(),
		TraceBytes:   tb.Bytes(),
		DRATBytes:    dratASCII,
	}), nil
}

// badCore validates a kernel hint-closure core: non-empty, strictly
// ascending, and every ID a real original clause. Returns "" when valid.
func badCore(core []int, numClauses int) string {
	if len(core) == 0 {
		return "is empty"
	}
	for i, id := range core {
		if id < 0 || id >= numClauses {
			return fmt.Sprintf("names clause %d outside the formula (%d clauses)", id, numClauses)
		}
		if i > 0 && id <= core[i-1] {
			return fmt.Sprintf("not strictly ascending at index %d", i)
		}
	}
	return ""
}

// stepsToBytes re-encodes proof steps in the chosen DRAT encoding.
func stepsToBytes(steps []drat.Step, binary bool) []byte {
	var buf bytes.Buffer
	var w *drat.Writer
	if binary {
		w = drat.NewBinaryWriter(&buf)
	} else {
		w = drat.NewWriter(&buf)
	}
	for _, st := range steps {
		if st.Del {
			_ = w.Del(st.Lits)
		} else {
			_ = w.Add(st.Lits)
		}
	}
	_ = w.Close()
	return buf.Bytes()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetInts reports whether every element of a appears in b; both slices are
// ascending (checker cores are emitted in clause-ID order).
func subsetInts(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// --- minimization predicates -------------------------------------------------

// minConflicts is the tighter solver budget used inside ddmin predicates.
const minConflicts = 50000

// predBruteDisagrees reproduces a CDCL-vs-brute-force verdict disagreement.
func (r *round) predBruteDisagrees() func(*cnf.Formula) bool {
	max := r.cfg.MaxConflicts
	return func(sub *cnf.Formula) bool {
		if sub.NumVars > 13 {
			return false
		}
		st, _, _, _, err := solveArtifacts(sub, max)
		if err != nil || st == solver.StatusUnknown {
			return false
		}
		sat, _ := testutil.BruteForceSat(sub)
		return (st == solver.StatusSat) != sat
	}
}

// predDPDisagrees reproduces a CDCL-vs-DP verdict disagreement.
func (r *round) predDPDisagrees() func(*cnf.Formula) bool {
	return func(sub *cnf.Formula) bool {
		st, _, _, _, err := solveArtifacts(sub, minConflicts)
		if err != nil || st == solver.StatusUnknown {
			return false
		}
		d, err := dp.New(sub, dpBudget)
		if err != nil {
			return false
		}
		dpSt, _, err := d.Solve()
		if err != nil {
			return false
		}
		return dpSt != st
	}
}

// predValidTraceRejected reproduces "checker rejects the solver's own trace".
func (r *round) predValidTraceRejected(method string) func(*cnf.Formula) bool {
	return func(sub *cnf.Formula) bool {
		st, _, mt, _, err := solveArtifacts(sub, minConflicts)
		if err != nil || st != solver.StatusUnsat {
			return false
		}
		_, cerr := methodCheck(method, sub, mt, checker.Options{})
		return cerr != nil
	}
}

// predValidDRATRejected reproduces "DRAT checker rejects the solver's own
// DRUP proof".
func (r *round) predValidDRATRejected(mode drat.Mode) func(*cnf.Formula) bool {
	return func(sub *cnf.Formula) bool {
		st, _, _, proof, err := solveArtifacts(sub, minConflicts)
		if err != nil || st != solver.StatusUnsat {
			return false
		}
		_, cerr := drat.Check(sub, drat.BytesSource(proof), mode, checker.Options{})
		return cerr != nil
	}
}

// validateInject resolves an -inject mutation name across the three
// catalogues.
func validateInject(name string) error {
	if name == "" {
		return nil
	}
	if _, err := faults.ByName(name); err == nil {
		return nil
	}
	if _, err := faults.ClausalByName(name); err == nil {
		return nil
	}
	if _, err := faults.LRATByName(name); err == nil {
		return nil
	}
	if _, err := faults.ERByName(name); err == nil {
		return nil
	}
	return fmt.Errorf("harness: unknown mutation %q (not a native, drat-, lrat-, or er- mutation)", name)
}

// InjectableMutations lists every mutation name -inject accepts, across the
// native, DRAT, LRAT, and ER catalogues.
func InjectableMutations() []string {
	var names []string
	for _, m := range faults.All() {
		names = append(names, m.Name)
	}
	for _, m := range faults.ClausalAll() {
		names = append(names, m.Name)
	}
	for _, m := range faults.LRATAll() {
		names = append(names, m.Name)
	}
	for _, m := range faults.ERAll() {
		names = append(names, m.Name)
	}
	return names
}
