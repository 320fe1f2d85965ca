// Command zverify is the independent resolution-based checker: given the
// original DIMACS formula and the trace zsat produced for an UNSAT claim, it
// verifies that the empty clause is derivable from the original clauses by
// resolution — without trusting the solver.
//
// Usage:
//
//	zverify [-method df|bf|hybrid|parallel|bdd|kernel|ooc]
//	        [-format native|drat|lrat|er] [-j N] [-mem-limit-mb N]
//	        [-mem-budget 64MiB] [-counts-on-disk] [-core]
//	        formula.cnf proof
//
// -format selects the proof encoding: the native resolution trace (default),
// a clausal DRUP/DRAT proof (zsat -drup), LRAT, or an extended-resolution
// proof from the BDD backend (zsat -method bdd -er). For DRAT, the method
// maps onto a checking direction: bf checks forward (streaming, no core);
// df, hybrid, and parallel check backward (only the needed lemmas, with an
// unsatisfiable core as the by-product, exactly like their native
// counterparts). The kernel method bridges native traces and DRAT proofs to
// propagation hints and verifies them in the trusted flat-array kernel
// (internal/kernel), producing a core from the hint closure. LRAT verifies
// in the kernel, with that core, by default; the ooc method runs the same
// kernel window by window, out of core, under the -mem-budget ceiling (see
// docs/OOC.md), with a verdict and core identical to the unconstrained
// kernel on RUP proofs. ER proofs are bridged to LRAT and kernel-checked
// under every method but ooc; bdd names that check and takes ER proofs only.
// satcheck.RunCheck picks the checker and refuses the pairs it cannot check.
//
// Exit status: 0 when the proof is valid, 2 when checking fails (the solver
// or its trace generation is buggy), 1 on usage or I/O errors. Exit 2 is
// reserved for check failures alone: flag errors go through a
// ContinueOnError FlagSet so they exit 1, not flag.ExitOnError's 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"satcheck"
	"satcheck/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	method := fs.String("method", "df", "checker strategy: df, bf, hybrid, parallel, bdd, kernel, or ooc")
	formatName := fs.String("format", "native", "proof encoding: native, drat, lrat, or er")
	jobs := fs.Int("j", 0, "parallel only: worker count (0 = one per available CPU)")
	memLimitMB := fs.Int64("mem-limit-mb", 0, "abort if the checker memory model exceeds this many MB (0 = unlimited)")
	memBudget := fs.String("mem-budget", "", "ooc only: window-shifting memory budget (e.g. 64MiB; default 256MiB)")
	countsOnDisk := fs.Bool("counts-on-disk", false, "bf only: keep use counts in a temp file, computed in ranges")
	countRange := fs.Int("count-range", 1<<20, "bf only: counters per counting pass with -counts-on-disk")
	core := fs.Bool("core", false, "print the unsatisfiable core clause IDs (every method but bf; not for er proofs)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: zverify [flags] formula.cnf proof.trace")
		fs.PrintDefaults()
		return 1
	}

	m, err := satcheck.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(stderr, "zverify:", err)
		return 1
	}
	format, err := satcheck.ParseProofFormat(*formatName)
	if err != nil {
		fmt.Fprintln(stderr, "zverify:", err)
		return 1
	}

	f, err := satcheck.ParseDimacsFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "zverify:", err)
		return 1
	}

	opts := satcheck.CheckOptions{
		MemLimitWords: *memLimitMB * (1 << 20) / 4,
		CountsOnDisk:  *countsOnDisk,
		CountRange:    *countRange,
		Parallelism:   *jobs,
	}
	if *memBudget != "" {
		opts.MemBudgetBytes, err = satcheck.ParseByteSize(*memBudget)
		if err != nil {
			fmt.Fprintln(stderr, "zverify:", err)
			return 1
		}
	}
	req := satcheck.CheckRequest{Formula: f, Format: format, Method: m, Options: opts}
	if format == satcheck.FormatNative {
		req.Trace = trace.FileSource(fs.Arg(1))
	} else {
		req.Proof = satcheck.ProofFileSource(fs.Arg(1))
	}
	rep, err := satcheck.RunCheck(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, "zverify:", err)
		return 1
	}
	if ce := rep.Failure; ce != nil {
		fmt.Fprintf(stdout, "RESULT: CHECK FAILED (%s)\n", ce.Kind)
		fmt.Fprintf(stdout, "kind=%s clause=%d step=%d\n", ce.Kind, ce.ClauseID, ce.Step)
		fmt.Fprintf(stdout, "detail: %v\n", ce)
		return 2
	}
	res := rep.Result
	fmt.Fprintln(stdout, "RESULT: PROOF VALID — the formula is unsatisfiable")
	fmt.Fprintf(stdout, "method=%s format=%s time=%v learned=%d built=%d (%.1f%%) resolutions=%d peak-mem=%dKB\n",
		m, format, rep.Elapsed.Round(time.Millisecond), res.LearnedTotal, res.ClausesBuilt,
		100*res.BuiltFraction(), res.ResolutionSteps, res.PeakMemWords*4/1024)
	if res.OOCWindows > 0 {
		fmt.Fprintf(stdout, "ooc: windows=%d spilled-clauses=%d spilled-bytes=%d mem-budget=%dKB\n",
			res.OOCWindows, res.SpilledClauses, res.SpilledBytes, res.PeakMemBoundWords*4/1024)
	}
	if res.CoreClauses != nil {
		fmt.Fprintf(stdout, "core: %d of %d original clauses, %d vars involved\n",
			len(res.CoreClauses), f.NumClauses(), res.CoreVars)
		if *core {
			for _, id := range res.CoreClauses {
				fmt.Fprintln(stdout, id)
			}
		}
	}
	return 0
}
