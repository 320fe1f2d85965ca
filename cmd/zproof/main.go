// Command zproof works with resolution proofs beyond the core
// check/validate flow:
//
//	zproof export -cnf f.cnf -trace proof.trace -o proof.tc
//	    convert a satcheck trace into the self-contained TraceCheck clause
//	    format (every derived clause with its literals and chain), the
//	    precursor of today's DRUP/DRAT proof formats (check it with
//	    zverify -format tc, as every other proof format);
//
//	zproof stats -cnf f.cnf -trace proof.trace [-format native|drat|lrat|er]
//	    print proof statistics: resolution-graph analytics for native traces
//	    and LRAT (needed clauses, core size, proof depth, chain/hint
//	    lengths), add/delete counts for DRAT, extension-variable counts and
//	    definition depth for ER;
//
//	zproof trim -cnf f.cnf -trace proof.trace -o trimmed.trace
//	    rewrite the trace keeping only the clauses the empty-clause
//	    derivation reaches (renumbered; still a valid trace for the same
//	    formula).
//
// Exit status: 0 on success, 2 when the proof is refused or an
// interpolant fails its check, 1 on usage/IO errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/interp"
	"satcheck/internal/proofstat"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
	"satcheck/internal/trim"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage:
  zproof export -cnf formula.cnf -trace proof.trace [-o proof.tc]
  zproof stats  -cnf formula.cnf -trace proof.trace [-format native|drat|lrat|er]
  zproof trim   -cnf formula.cnf -trace proof.trace -o trimmed.trace
  zproof interpolate -cnf formula.cnf -trace proof.trace -split K`)
	return 1
}

func run() int {
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "export":
		return runExport(os.Args[2:])
	case "stats":
		return runStats(os.Args[2:])
	case "interpolate":
		return runInterpolate(os.Args[2:])
	case "trim":
		return runTrim(os.Args[2:])
	default:
		return usage()
	}
}

func runTrim(args []string) int {
	fs := flag.NewFlagSet("trim", flag.ContinueOnError)
	cnfPath := fs.String("cnf", "", "DIMACS formula")
	tracePath := fs.String("trace", "", "satcheck resolution trace")
	out := fs.String("o", "", "output trace file (default stdout)")
	format := fs.String("format", "ascii", "output encoding: ascii or binary")
	if fs.Parse(args) != nil {
		return 1
	}
	f, ok := loadInputs(*cnfPath, *tracePath)
	if !ok {
		return 1
	}
	w := os.Stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zproof:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	encode := func(w io.Writer) trace.Sink { return trace.NewASCIIWriter(w) }
	if *format == "binary" {
		encode = func(w io.Writer) trace.Sink { return trace.NewBinaryWriter(w) }
	}
	stats, err := trim.File(f.NumClauses(), *tracePath, w, encode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zproof: trim:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "kept %d of %d learned clauses (%.1f%%), %d of %d source refs\n",
		stats.LearnedOut, stats.LearnedIn, 100*stats.KeptFraction(), stats.SourcesOut, stats.SourcesIn)
	return 0
}

// loadInputs parses the -cnf formula, once it has checked that -cnf and
// -trace are both set.
func loadInputs(cnfPath, tracePath string) (*cnf.Formula, bool) {
	if cnfPath == "" || tracePath == "" {
		fmt.Fprintln(os.Stderr, "zproof: -cnf and -trace are required")
		return nil, false
	}
	f, err := cnf.ParseDimacsFile(cnfPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zproof:", err)
		return nil, false
	}
	return f, true
}

func runExport(args []string) int {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	cnfPath := fs.String("cnf", "", "DIMACS formula")
	tracePath := fs.String("trace", "", "satcheck resolution trace")
	out := fs.String("o", "", "output TraceCheck file (default stdout)")
	if fs.Parse(args) != nil {
		return 1
	}
	f, ok := loadInputs(*cnfPath, *tracePath)
	if !ok {
		return 1
	}
	w := os.Stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zproof:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	stats, err := tracecheck.Export(f, trace.FileSource(*tracePath), w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zproof: export:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "exported %d original + %d derived clauses, %d resolutions, %d bytes\n",
		stats.Originals, stats.Derived, stats.Resolutions, stats.Bytes)
	return 0
}

func runStats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	cnfPath := fs.String("cnf", "", "DIMACS formula")
	tracePath := fs.String("trace", "", "proof input: resolution trace, DRAT, LRAT, or ER file per -format")
	format := fs.String("format", "native", "proof encoding: native, drat, lrat, or er")
	if fs.Parse(args) != nil {
		return 1
	}
	f, ok := loadInputs(*cnfPath, *tracePath)
	if !ok {
		return 1
	}
	var st *proofstat.Stats
	var err error
	switch *format {
	case "", "native":
		st, err = proofstat.Analyze(f, trace.FileSource(*tracePath))
	case "drat", "drup":
		st, err = proofstat.AnalyzeDRAT(f, drat.FileSource(*tracePath))
	case "lrat":
		st, err = proofstat.AnalyzeLRAT(f, drat.FileSource(*tracePath))
	case "er":
		st, err = proofstat.AnalyzeER(f, drat.FileSource(*tracePath))
	default:
		fmt.Fprintf(os.Stderr, "zproof: unknown proof format %q (want native, drat, lrat, or er)\n", *format)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zproof:", err)
		return 2
	}
	switch st.Format {
	case "drat":
		fmt.Printf("original clauses: %d\n", st.NumOriginal)
		fmt.Printf("added clauses:    %d\n", st.NumLearned)
		fmt.Printf("deleted clauses:  %d\n", st.NumDeleted)
		fmt.Printf("clause length:    avg %.1f, max %d\n", st.AvgChain(), st.ChainMax)
		fmt.Printf("proof integers:   %d\n", st.TraceInts)
	case "lrat":
		fmt.Printf("original clauses: %d\n", st.NumOriginal)
		fmt.Printf("added clauses:    %d\n", st.NumLearned)
		fmt.Printf("deleted clauses:  %d\n", st.NumDeleted)
		fmt.Printf("needed added:     %d (%.1f%%)\n", st.NeededLearned, 100*st.NeededFraction())
		fmt.Printf("core originals:   %d (%.1f%%)\n", st.NeededOriginal,
			100*float64(st.NeededOriginal)/float64(st.NumOriginal))
		fmt.Printf("proof depth:      %d\n", st.Depth)
		fmt.Printf("hint count:       avg %.1f, max %d\n", st.AvgChain(), st.ChainMax)
		fmt.Printf("proof integers:   %d\n", st.TraceInts)
	case "er":
		fmt.Printf("original clauses: %d\n", st.NumOriginal)
		fmt.Printf("added clauses:    %d\n", st.NumLearned)
		fmt.Printf("extension vars:   %d\n", st.Extensions)
		fmt.Printf("ext def depth:    %d\n", st.ExtDepthMax)
		fmt.Printf("needed added:     %d (%.1f%%)\n", st.NeededLearned, 100*st.NeededFraction())
		fmt.Printf("core originals:   %d (%.1f%%)\n", st.NeededOriginal,
			100*float64(st.NeededOriginal)/float64(st.NumOriginal))
		fmt.Printf("proof depth:      %d\n", st.Depth)
		fmt.Printf("hint count:       avg %.1f, max %d\n", st.AvgChain(), st.ChainMax)
		fmt.Printf("proof integers:   %d\n", st.TraceInts)
	default:
		fmt.Printf("original clauses: %d\n", st.NumOriginal)
		fmt.Printf("learned clauses:  %d\n", st.NumLearned)
		fmt.Printf("needed learned:   %d (%.1f%%)\n", st.NeededLearned, 100*st.NeededFraction())
		fmt.Printf("core originals:   %d (%.1f%%)\n", st.NeededOriginal,
			100*float64(st.NeededOriginal)/float64(st.NumOriginal))
		fmt.Printf("proof depth:      %d\n", st.Depth)
		fmt.Printf("chain length:     avg %.1f, max %d\n", st.AvgChain(), st.ChainMax)
		fmt.Printf("level-0 records:  %d\n", st.Level0)
		fmt.Printf("trace integers:   %d\n", st.TraceInts)
	}
	return 0
}

func runInterpolate(args []string) int {
	fs := flag.NewFlagSet("interpolate", flag.ContinueOnError)
	cnfPath := fs.String("cnf", "", "DIMACS formula")
	tracePath := fs.String("trace", "", "satcheck resolution trace")
	split := fs.Int("split", 0, "clause count of the A side (first -split clauses form A)")
	verify := fs.Bool("verify", true, "machine-check the interpolant properties with the solver")
	if fs.Parse(args) != nil {
		return 1
	}
	f, ok := loadInputs(*cnfPath, *tracePath)
	if !ok {
		return 1
	}
	if *split <= 0 || *split >= f.NumClauses() {
		fmt.Fprintf(os.Stderr, "zproof: -split must be in (0, %d)\n", f.NumClauses())
		return 1
	}
	inA := interp.SplitFirstK(f, *split)
	it, err := interp.Compute(f, trace.FileSource(*tracePath), inA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zproof: interpolate:", err)
		return 2
	}
	fmt.Printf("interpolant: %d gates over %d shared variables\n", it.Gates, len(it.Vars))
	if *verify {
		if err := it.VerifyAgainst(f, inA, solver.Options{}); err != nil {
			fmt.Printf("RESULT: INTERPOLANT INVALID: %v\n", err)
			return 2
		}
		fmt.Println("RESULT: INTERPOLANT VERIFIED (A ⊨ I; I ∧ B unsat; shared vocabulary)")
	}
	return 0
}
