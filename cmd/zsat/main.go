// Command zsat is the instrumented CDCL SAT solver: it decides a DIMACS CNF
// file and optionally records the resolution trace that lets zverify
// independently validate an UNSAT answer.
//
// Usage:
//
//	zsat [-trace out.trace] [-format ascii|binary] [-drup out.drup]
//	     [-model] [-stats] formula.cnf
//	zsat -incremental [-assume "l1 l2 ..."]... [-model] [-stats] formula.cnf
//	zsat -method bdd [-bdd-order static|force|natural] [-bdd-bucket]
//	     [-er out.er] [-er-lrat out.lrat] [-model] [-stats] formula.cnf
//	zsat -certify [-cert-out bundle.json] [-cert-key hex] [-cert-timeout d]
//	     [-model] [-stats] formula.cnf
//
// -certify solves the formula while recording both a native resolution trace
// and a clausal DRAT proof in memory, then runs the fail-closed dual-checker
// certification pipeline (docs/CERTIFY.md) over the run's own artifacts. The
// signed verdict bundle is printed as JSON (or written to -cert-out). Exit is
// 20 only for CERTIFIED_UNSAT; an UNSAT answer whose certification fails
// exits 1.
//
// -drup additionally records a clausal DRUP proof (checkable by
// `zverify -format drat`), independent of the native trace: a run may record
// either, both, or neither. A ".gz" suffix gzips the proof.
//
// -method bdd switches to the BDD backend: UNSAT answers emit an
// extended-resolution proof (-er, checkable by `zverify -format er` or
// `zcheckd method=bdd`; -er-lrat writes its LRAT bridge translation), SAT
// answers a model. The node budget (-bdd-max-nodes) turns order-hostile
// blowups into UNKNOWN.
//
// -incremental solves the formula on one persistent session, once per -assume
// flag (once with no assumptions when the flag is absent), reusing learned
// clauses across calls. Every answer is independently validated: UNSAT proofs
// replay through the depth-first checker (printed as "c validated"), SAT
// models are checked against every clause and assumption. UNSAT calls print
// the failed-assumption core on a "c core" line.
//
// Exit status follows the SAT-competition convention: 10 satisfiable,
// 20 unsatisfiable, 1 error or unknown (for -incremental: the last call's
// answer).
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"satcheck"
	"satcheck/internal/bdd"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/incremental"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/walksat"
)

// assumeList collects repeated -assume flags.
type assumeList []string

func (a *assumeList) String() string { return strings.Join(*a, "; ") }

func (a *assumeList) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	tracePath := flag.String("trace", "", "write the resolution trace to this file")
	drupPath := flag.String("drup", "", "write a clausal DRUP proof to this file (\".gz\" suffix gzips)")
	drupBinary := flag.Bool("drup-binary", false, "use the binary DRAT encoding for -drup")
	format := flag.String("format", "ascii", "trace encoding: ascii or binary")
	gzipTrace := flag.Bool("gzip", false, "gzip-compress the trace (stacks with either encoding)")
	showModel := flag.Bool("model", false, "print the satisfying assignment (v line)")
	showStats := flag.Bool("stats", false, "print solver statistics")
	maxConflicts := flag.Int64("max-conflicts", 0, "abort after this many conflicts (0 = none)")
	local := flag.Bool("local", false, "use WalkSAT local search instead of CDCL (incomplete: answers SAT or UNKNOWN, never UNSAT)")
	seed := flag.Int64("seed", 1, "random seed for -local")
	incr := flag.Bool("incremental", false, "solve on one validated persistent session, once per -assume flag")
	method := flag.String("method", "cdcl", "solving backend: cdcl or bdd")
	bddOrder := flag.String("bdd-order", "static", "BDD variable order: static, force, or natural")
	bddBucket := flag.Bool("bdd-bucket", false, "use bucket elimination instead of conjoin-everything")
	bddMaxNodes := flag.Int("bdd-max-nodes", 0, "BDD node budget (0 = default, negative = unlimited); exceeding it answers UNKNOWN")
	erPath := flag.String("er", "", "write the BDD backend's extended-resolution proof to this file (\".gz\" suffix gzips)")
	erLratPath := flag.String("er-lrat", "", "write the ER proof's LRAT bridge translation to this file (\".gz\" suffix gzips)")
	certifyRun := flag.Bool("certify", false, "solve, then dual-check the run's own proofs (trusted kernel + backward DRAT) and print a signed verdict bundle; nonzero exit unless CERTIFIED_UNSAT (or SAT with a verified model)")
	certOut := flag.String("cert-out", "", "write the certification bundle JSON to this file instead of stdout")
	certKey := flag.String("cert-key", "", "hex HMAC-SHA256 key for bundle signing (default: ephemeral ed25519)")
	certTimeout := flag.Duration("cert-timeout", 0, "per-pipeline certification budget (0 = none)")
	var assumes assumeList
	flag.Var(&assumes, "assume", "assumption literals for one incremental call, space-separated DIMACS (repeatable; implies -incremental)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: zsat [flags] formula.cnf")
		flag.PrintDefaults()
		return 1
	}

	f, err := cnf.ParseDimacsFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}

	switch *method {
	case "", "cdcl":
		if *erPath != "" || *erLratPath != "" {
			fmt.Fprintln(os.Stderr, "zsat: -er/-er-lrat require -method bdd")
			return 1
		}
	case "bdd":
		if *incr || len(assumes) > 0 || *local || *tracePath != "" || *drupPath != "" {
			fmt.Fprintln(os.Stderr, "zsat: -method bdd cannot be combined with -incremental, -local, -trace, or -drup")
			return 1
		}
		return runBDD(f, *bddOrder, *bddBucket, *bddMaxNodes, *erPath, *erLratPath, *showModel, *showStats)
	default:
		fmt.Fprintf(os.Stderr, "zsat: unknown method %q (want cdcl or bdd)\n", *method)
		return 1
	}

	if *certifyRun {
		if *incr || len(assumes) > 0 || *local || *tracePath != "" || *drupPath != "" {
			fmt.Fprintln(os.Stderr, "zsat: -certify cannot be combined with -incremental, -local, -trace, or -drup (it records its own artifacts)")
			return 1
		}
		return runCertify(flag.Arg(0), f, *maxConflicts, *certOut, *certKey, *certTimeout, *showModel, *showStats)
	}

	if *incr || len(assumes) > 0 {
		if *local || *tracePath != "" || *drupPath != "" {
			fmt.Fprintln(os.Stderr, "zsat: -incremental cannot be combined with -local, -trace, or -drup")
			return 1
		}
		return runIncremental(f, assumes, *maxConflicts, *showModel, *showStats)
	}

	if *local {
		found, m, stats := walksat.Solve(f, walksat.Options{Seed: *seed})
		if !found {
			fmt.Println("s UNKNOWN")
			return 1
		}
		if bad, ok := cnf.VerifyModel(f, m); !ok {
			fmt.Fprintf(os.Stderr, "zsat: internal: local-search model fails clause %d\n", bad)
			return 1
		}
		fmt.Println("s SATISFIABLE")
		if *showStats {
			fmt.Printf("c tries=%d flips=%d\n", stats.Tries, stats.Flips)
		}
		if *showModel {
			printModel(f, m)
		}
		return 10
	}

	s, err := solver.New(f, solver.Options{MaxConflicts: *maxConflicts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}

	var traceBytes func() int64
	if *tracePath != "" {
		out, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		defer out.Close()
		var encode func(w io.Writer) trace.Sink
		switch *format {
		case "ascii":
			encode = func(w io.Writer) trace.Sink { return trace.NewASCIIWriter(w) }
		case "binary":
			encode = func(w io.Writer) trace.Sink { return trace.NewBinaryWriter(w) }
		default:
			fmt.Fprintf(os.Stderr, "zsat: unknown trace format %q\n", *format)
			return 1
		}
		if *gzipTrace {
			gz := trace.NewGzipSink(out, encode)
			s.SetTrace(gz)
			traceBytes = gz.BytesWritten
		} else {
			sink := encode(out)
			s.SetTrace(sink)
			switch w := sink.(type) {
			case *trace.ASCIIWriter:
				traceBytes = w.BytesWritten
			case *trace.BinaryWriter:
				traceBytes = w.BytesWritten
			}
		}
	}

	var drupBytes func() int64
	var drupFinish func() error
	if *drupPath != "" {
		out, err := os.Create(*drupPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		defer out.Close()
		var w io.Writer = out
		var gz *gzip.Writer
		if strings.HasSuffix(*drupPath, ".gz") {
			gz = gzip.NewWriter(out)
			w = gz
		}
		var pw *drat.Writer
		if *drupBinary {
			pw = drat.NewBinaryWriter(w)
		} else {
			pw = drat.NewWriter(w)
		}
		s.SetProofSink(pw)
		drupBytes = pw.BytesWritten
		drupFinish = func() error {
			if gz != nil {
				return gz.Close()
			}
			return nil
		}
	}

	status, err := s.Solve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	// The solver closed (flushed) the proof writer; finish the gzip stream.
	if drupFinish != nil {
		if err := drupFinish(); err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
	}
	fmt.Printf("s %s\n", status)
	if *showStats {
		st := s.Stats()
		fmt.Printf("c decisions=%d propagations=%d conflicts=%d learned=%d deleted=%d restarts=%d\n",
			st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.Deleted, st.Restarts)
		if traceBytes != nil {
			fmt.Printf("c trace-bytes=%d\n", traceBytes())
		}
		if drupBytes != nil {
			fmt.Printf("c drup-bytes=%d\n", drupBytes())
		}
	}
	switch status {
	case solver.StatusSat:
		if *showModel {
			printModel(f, s.Model())
		}
		return 10
	case solver.StatusUnsat:
		return 20
	default:
		return 1
	}
}

// runBDD decides f with the BDD backend. Proofs are always recorded (the
// backend exists to be checked); -er and -er-lrat choose what gets written.
func runBDD(f *cnf.Formula, orderName string, bucket bool, maxNodes int, erPath, erLratPath string, showModel, showStats bool) int {
	order, err := bdd.ParseOrder(orderName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	res, err := bdd.Solve(f, bdd.Options{
		Order:    order,
		Bucket:   bucket,
		MaxNodes: maxNodes,
		Proof:    true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	fmt.Printf("s %s\n", res.Status)
	if showStats {
		st := res.Stats
		fmt.Printf("c method=bdd order=%s bucket=%v nodes=%d extensions=%d apply-calls=%d cache-hits=%d quantified=%d proof-lines=%d\n",
			order, bucket, st.Nodes, st.Extensions, st.ApplyCalls, st.CacheHits, st.Quantified, st.ProofLines)
	}
	switch res.Status {
	case solver.StatusSat:
		if bad, ok := cnf.VerifyModel(f, res.Model); !ok {
			fmt.Fprintf(os.Stderr, "zsat: internal: BDD model fails clause %d\n", bad)
			return 1
		}
		if showModel {
			printModel(f, res.Model)
		}
		return 10
	case solver.StatusUnsat:
		if erPath != "" {
			if err := writeMaybeGzip(erPath, func(w io.Writer) error {
				return bdd.WriteER(w, res.Proof)
			}); err != nil {
				fmt.Fprintln(os.Stderr, "zsat:", err)
				return 1
			}
		}
		if erLratPath != "" {
			if err := writeMaybeGzip(erLratPath, func(w io.Writer) error {
				return bdd.WriteLRAT(w, f, res.Proof)
			}); err != nil {
				fmt.Fprintln(os.Stderr, "zsat:", err)
				return 1
			}
		}
		return 20
	default:
		return 1
	}
}

// runCertify solves f while recording both an in-memory native trace and an
// in-memory DRAT proof, then — on UNSAT — runs the fail-closed dual-checker
// pipeline over the run's own artifacts and prints the signed verdict bundle.
// The instance hash in the bundle covers the submitted file byte-for-byte
// (raw), not a re-serialization. Exit: 10 SAT (verified model),
// 20 CERTIFIED_UNSAT, 1 anything else — an uncertified UNSAT answer is an
// error by policy, never a bare exit 20.
func runCertify(path string, f *cnf.Formula, maxConflicts int64, certOut, certKey string, certTimeout time.Duration, showModel, showStats bool) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	var signer satcheck.CertifySigner
	if certKey != "" {
		key, err := hex.DecodeString(certKey)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat: -cert-key is not hex:", err)
			return 1
		}
		signer = satcheck.NewCertifyHMACSigner(key)
	}

	s, err := solver.New(f, solver.Options{MaxConflicts: maxConflicts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	var traceBuf, drupBuf bytes.Buffer
	s.SetTrace(trace.NewASCIIWriter(&traceBuf))
	s.SetProofSink(drat.NewWriter(&drupBuf))

	status, err := s.Solve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	fmt.Printf("s %s\n", status)
	if showStats {
		st := s.Stats()
		fmt.Printf("c decisions=%d propagations=%d conflicts=%d learned=%d deleted=%d restarts=%d\n",
			st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.Deleted, st.Restarts)
		fmt.Printf("c trace-bytes=%d drup-bytes=%d\n", traceBuf.Len(), drupBuf.Len())
	}

	switch status {
	case solver.StatusSat:
		m := s.Model()
		if bad, ok := cnf.VerifyModel(f, m); !ok {
			fmt.Fprintf(os.Stderr, "zsat: internal: model fails clause %d\n", bad)
			return 1
		}
		fmt.Println("c certify: SAT answer carries a verified model; no bundle emitted")
		if showModel {
			printModel(f, m)
		}
		return 10
	case solver.StatusUnsat:
		c, err := satcheck.NewCertifier(satcheck.CertifyConfig{Signer: signer, Timeout: certTimeout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		bundle := c.Certify(context.Background(), satcheck.CertifyRequest{
			FormulaBytes: raw,
			TraceBytes:   traceBuf.Bytes(),
			DRATBytes:    drupBuf.Bytes(),
		})
		data, err := json.MarshalIndent(bundle, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		data = append(data, '\n')
		if certOut != "" {
			if err := os.WriteFile(certOut, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "zsat:", err)
				return 1
			}
		} else {
			os.Stdout.Write(data)
		}
		if !bundle.Certified() {
			fmt.Fprintf(os.Stderr, "zsat: CERTIFY_FAIL: %s\n", bundle.Reason)
			return 1
		}
		fmt.Printf("c certify: %s checkers=%d\n", bundle.Outcome, len(bundle.Checkers))
		return 20
	default:
		fmt.Fprintln(os.Stderr, "zsat: certify: solver returned", status, "- nothing to certify")
		return 1
	}
}

// writeMaybeGzip creates path and streams write into it, gzipping when the
// path carries a ".gz" suffix.
func writeMaybeGzip(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	var w io.Writer = out
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(out)
		w = gz
	}
	if err := write(w); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return out.Close()
}

// runIncremental solves f on one validated session, once per assumption set
// (once with no assumptions when none are given). Each call prints its own
// "s" answer and per-call "c call" stats line; a final "c total" line reports
// the cumulative counters. The exit status reflects the last call.
func runIncremental(f *cnf.Formula, assumes assumeList, maxConflicts int64, showModel, showStats bool) int {
	sess := incremental.NewSession(incremental.Options{
		Solver: solver.Options{MaxConflicts: maxConflicts},
	})
	if err := sess.AddFormula(f); err != nil {
		fmt.Fprintln(os.Stderr, "zsat:", err)
		return 1
	}
	sets := make([][]cnf.Lit, 0, len(assumes))
	if len(assumes) == 0 {
		sets = append(sets, nil)
	}
	for _, spec := range assumes {
		lits, err := parseAssumptions(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		sets = append(sets, lits)
	}

	code := 1
	for i, lits := range sets {
		if len(sets) > 1 || len(lits) > 0 {
			fmt.Printf("c call %d assuming:%s\n", i+1, dimacsString(lits))
		}
		st, err := sess.SolveAssuming(lits)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsat:", err)
			return 1
		}
		fmt.Printf("s %s\n", st)
		switch st {
		case solver.StatusSat:
			code = 10
			if showModel {
				printModel(f, sess.Model())
			}
		case solver.StatusUnsat:
			code = 20
			fmt.Printf("c core:%s 0\n", dimacsString(sess.Core()))
			if res := sess.CheckResult(); res != nil {
				fmt.Printf("c validated method=depth-first core-clauses=%d\n", len(res.CoreClauses))
			}
		default:
			code = 1
		}
		if showStats {
			printStatsLine(fmt.Sprintf("call %d", i+1), sess.LastStats())
		}
	}
	if showStats {
		printStatsLine("total", sess.Stats())
	}
	return code
}

// parseAssumptions reads space-separated DIMACS literals.
func parseAssumptions(spec string) ([]cnf.Lit, error) {
	fields := strings.Fields(spec)
	lits := make([]cnf.Lit, 0, len(fields))
	for _, fld := range fields {
		d, err := strconv.Atoi(fld)
		if err != nil || d == 0 {
			return nil, fmt.Errorf("zsat: bad assumption literal %q", fld)
		}
		lits = append(lits, cnf.LitFromDimacs(d))
	}
	return lits, nil
}

func dimacsString(lits []cnf.Lit) string {
	var b strings.Builder
	for _, l := range lits {
		fmt.Fprintf(&b, " %d", l.Dimacs())
	}
	return b.String()
}

func printStatsLine(label string, st solver.Stats) {
	fmt.Printf("c %s decisions=%d propagations=%d conflicts=%d learned=%d deleted=%d restarts=%d\n",
		label, st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.Deleted, st.Restarts)
}

func printModel(f *cnf.Formula, m cnf.Model) {
	fmt.Print("v")
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		d := int(v)
		if m.Value(v) != cnf.True {
			d = -d
		}
		fmt.Printf(" %d", d)
	}
	fmt.Println(" 0")
}
