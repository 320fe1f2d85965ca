package ooc

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/kernelcheck"
)

// mkFormula builds a formula from DIMACS-style clause literal lists.
func mkFormula(nVars int, cls ...[]int) *cnf.Formula {
	f := &cnf.Formula{NumVars: nVars}
	for _, c := range cls {
		cl := make(cnf.Clause, len(c))
		for i, d := range c {
			cl[i] = cnf.LitFromDimacs(d)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// chainFormula is the 3-clause UNSAT base of the hand-built proofs:
//
//	1: (x1)   2: (-x1 x2)   3: (-x1 -x2)
func chainFormula() *cnf.Formula {
	return mkFormula(2, []int{1}, []int{-1, 2}, []int{-1, -2})
}

// chainProof builds an LRAT refutation of chainFormula with n filler
// lines between the first derived clause and the finish, every filler
// hinting back to clause 4 — so with a small budget clause 4 must be
// spilled at the first window boundary and reloaded by every later
// window.
//
//	4: (x2) from 1,2; fillers 5..n+4: (x2) from 4; n+5: (-x2) from 1,3;
//	n+6: empty from 4, n+5.
func chainProof(n int, extra ...string) string {
	var b strings.Builder
	b.WriteString("4 2 0 1 2 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d 2 0 4 0\n", 5+i)
	}
	for _, line := range extra {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d -2 0 1 3 0\n", n+5)
	fmt.Fprintf(&b, "%d 0 4 %d 0\n", n+6, n+5)
	return b.String()
}

// testOpts returns small-budget options rooted in the test's temp dir.
func testOpts(t *testing.T, budget int64) checker.Options {
	t.Helper()
	return checker.Options{MemBudgetBytes: budget, TempDir: t.TempDir()}
}

// runBoth checks the same proof with the in-memory kernel (core enabled)
// and the out-of-core checker and returns both outcomes.
func runBoth(t *testing.T, f *cnf.Formula, proof string, budget int64) (kRes, oRes *checker.Result, kErr, oErr error) {
	t.Helper()
	src := drat.BytesSource(proof)
	kRes, kErr = kernelcheck.CheckLRAT(f, src, checker.Options{})
	oRes, oErr = CheckLRAT(f, src, testOpts(t, budget))
	return
}

// wantSameVerdict requires verdicts — and, for rejections, the full
// diagnostic text — to be identical between the kernel and ooc.
func wantSameVerdict(t *testing.T, kErr, oErr error) {
	t.Helper()
	if (kErr == nil) != (oErr == nil) {
		t.Fatalf("verdicts diverge: kernel=%v ooc=%v", kErr, oErr)
	}
	if kErr != nil && kErr.Error() != oErr.Error() {
		t.Fatalf("diagnostics diverge:\n  kernel: %v\n  ooc:    %v", kErr, oErr)
	}
}

const tinyBudget = 64 << 10 // 16K words: forces a window every ~4K parse words

// TestSpillReloadAcrossWindows is the core out-of-core scenario: a clause
// learned in the first window is referenced by every later window, so it
// must be spilled once and re-imported repeatedly, with verdict, stats,
// and core identical to the in-memory kernel.
func TestSpillReloadAcrossWindows(t *testing.T) {
	f := chainFormula()
	proof := chainProof(2000)
	kRes, oRes, kErr, oErr := runBoth(t, f, proof, tinyBudget)
	wantSameVerdict(t, kErr, oErr)
	if kErr != nil {
		t.Fatalf("kernel rejected the chain proof: %v", kErr)
	}
	if oRes.OOCWindows < 3 {
		t.Fatalf("expected >=3 windows at a %d-byte budget, got %d", int(tinyBudget), oRes.OOCWindows)
	}
	if oRes.SpilledClauses < 1 || oRes.SpilledBytes <= 0 {
		t.Fatalf("no spill happened (clauses=%d bytes=%d); the scenario demands one", oRes.SpilledClauses, oRes.SpilledBytes)
	}
	if oRes.ClausesBuilt != kRes.ClausesBuilt || oRes.ResolutionSteps != kRes.ResolutionSteps {
		t.Fatalf("stats diverge: kernel %d/%d, ooc %d/%d",
			kRes.ClausesBuilt, kRes.ResolutionSteps, oRes.ClausesBuilt, oRes.ResolutionSteps)
	}
	if len(oRes.CoreClauses) != len(kRes.CoreClauses) {
		t.Fatalf("core sizes diverge: kernel %v, ooc %v", kRes.CoreClauses, oRes.CoreClauses)
	}
	for i := range kRes.CoreClauses {
		if kRes.CoreClauses[i] != oRes.CoreClauses[i] {
			t.Fatalf("cores diverge: kernel %v, ooc %v", kRes.CoreClauses, oRes.CoreClauses)
		}
	}
	if oRes.PeakMemWords > oRes.PeakMemBoundWords {
		t.Fatalf("model peak %d exceeds the budget bound %d", oRes.PeakMemWords, oRes.PeakMemBoundWords)
	}
}

// TestFileSourceMmapPath runs the same scenario through a file source,
// exercising the mmap ingest path end to end.
func TestFileSourceMmapPath(t *testing.T) {
	f := chainFormula()
	path := t.TempDir() + "/proof.lrat"
	if err := os.WriteFile(path, []byte(chainProof(2000)), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := CheckLRAT(f, drat.FileSource(path), testOpts(t, tinyBudget))
	if err != nil {
		t.Fatal(err)
	}
	if res.OOCWindows < 3 {
		t.Fatalf("expected >=3 windows, got %d", res.OOCWindows)
	}
}

// TestCrossWindowDeletion covers deletions whose target lives in an
// earlier window: a valid deletion must retire the clause globally (a
// later hint to it fails exactly like the kernel), and deleting it twice
// is the kernel's "deletion of unknown clause".
func TestCrossWindowDeletion(t *testing.T) {
	f := chainFormula()
	del := fmt.Sprintf("%d d 5 0", 2004)
	t.Run("valid", func(t *testing.T) {
		// Delete filler 5 (window 0) near the end; nothing references it
		// afterwards, so the proof still verifies.
		_, oRes, kErr, oErr := runBoth(t, f, chainProof(2000, del), tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr != nil {
			t.Fatalf("valid cross-window deletion rejected: %v", oErr)
		}
		if oRes.OOCWindows < 3 {
			t.Fatalf("deletion did not cross windows (windows=%d)", oRes.OOCWindows)
		}
	})
	t.Run("hint-after-delete", func(t *testing.T) {
		// A later lemma hinting the deleted clause must die with the
		// kernel's not-live diagnostic.
		bad := chainProof(2000, del, "2005 2 0 5 0")
		_, _, kErr, oErr := runBoth(t, f, bad, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr == nil {
			t.Fatal("hint to a deleted clause accepted")
		}
	})
	t.Run("double-delete", func(t *testing.T) {
		bad := chainProof(2000, del, fmt.Sprintf("%d d 5 0", 2005))
		_, _, kErr, oErr := runBoth(t, f, bad, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr == nil {
			t.Fatal("double deletion accepted")
		}
	})
}

// TestDegenerateWindows drives windows with unusual shapes: deletion-only
// stretches (a window with zero additions), an empty proof, and lines
// after the first verified empty clause (which must stay ignored).
func TestDegenerateWindows(t *testing.T) {
	f := chainFormula()
	t.Run("deletion-only-window", func(t *testing.T) {
		// 2000 fillers then 1999 single-ID deletion lines: the deletion run
		// spans whole windows on its own.
		var extra []string
		for i := 0; i < 1999; i++ {
			extra = append(extra, fmt.Sprintf("%d d %d 0", 2005+i, 5+i))
		}
		proof := chainProofWithID(2000, 2005+1999, extra)
		// 256KiB: the deletion run carries more per-window op state than the
		// chain proofs, and 64KiB trips the hard budget ceiling.
		_, oRes, kErr, oErr := runBoth(t, f, proof, 256<<10)
		wantSameVerdict(t, kErr, oErr)
		if oErr != nil {
			t.Fatalf("deletion-heavy proof rejected: %v", oErr)
		}
		if oRes.OOCWindows < 3 {
			t.Fatalf("expected many windows, got %d", oRes.OOCWindows)
		}
	})
	t.Run("empty-proof", func(t *testing.T) {
		_, _, kErr, oErr := runBoth(t, f, "", tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr == nil {
			t.Fatal("empty proof accepted")
		}
	})
	t.Run("lines-after-empty-ignored", func(t *testing.T) {
		// Semantically bogus lines after the verified empty clause are
		// never checked — by the kernel or out of core.
		proof := chainProof(2000) + "2007 2 0 424242 0\n"
		_, _, kErr, oErr := runBoth(t, f, proof, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr != nil {
			t.Fatalf("lines after the empty clause affected the verdict: %v", oErr)
		}
	})
}

// chainProofWithID is chainProof with the closing pair renumbered to start
// at finish (for proofs whose extras consume IDs).
func chainProofWithID(n, finish int, extra []string) string {
	var b strings.Builder
	b.WriteString("4 2 0 1 2 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d 2 0 4 0\n", 5+i)
	}
	for _, line := range extra {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d -2 0 1 3 0\n", finish)
	fmt.Fprintf(&b, "%d 0 4 %d 0\n", finish+1, finish)
	return b.String()
}

// TestTruncatedProofMidWindow cuts the proof at several byte offsets; a
// parse error anywhere must reject the whole proof (the in-memory path
// parses fully before checking, and pass A reproduces that), with the
// same diagnostic.
func TestTruncatedProofMidWindow(t *testing.T) {
	f := chainFormula()
	full := chainProof(2000)
	for _, frac := range []float64{0.3, 0.5, 0.9, 0.999} {
		cut := full[:int(float64(len(full))*frac)]
		cut = strings.TrimSuffix(cut, "\n") // land mid-line more often than not
		_, _, kErr, oErr := runBoth(t, f, cut, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr == nil && kErr == nil {
			// A cut landing exactly between lines parses fine and then
			// fails as "ends without deriving the empty clause" — also a
			// rejection.
			t.Fatalf("truncated proof (%.0f%%) accepted", frac*100)
		}
	}
}

// TestCorruptSpillFailsClosed flips bytes in a sealed spill segment
// between write and read-back; the checker must reject (never accept, and
// never report a kernel-style hint failure that would misattribute the
// corruption to the proof).
func TestCorruptSpillFailsClosed(t *testing.T) {
	f := chainFormula()
	defer func() { afterSpillWindow = nil }()
	corrupted := false
	afterSpillWindow = func(segPath string) {
		if corrupted || !strings.HasSuffix(segPath, "seg-000000.seg") {
			return
		}
		b, err := os.ReadFile(segPath)
		if err != nil || len(b) <= len(spillMagic) {
			t.Fatalf("cannot corrupt %s: %v", segPath, err)
		}
		b[len(spillMagic)] ^= 0x55 // first record's id varint
		if err := os.WriteFile(segPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	_, err := CheckLRAT(f, drat.BytesSource(chainProof(2000)), testOpts(t, tinyBudget))
	if !corrupted {
		t.Fatal("fault injection never fired; the scenario did not spill")
	}
	if err == nil {
		t.Fatal("corrupt spill index accepted — the checker is not fail-closed")
	}
	var ce *checker.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption surfaced as %T, want *CheckError: %v", err, err)
	}
	if !strings.Contains(ce.Error(), "spill index corrupt") {
		t.Fatalf("corruption misattributed: %v", ce)
	}
}

// TestRATFailsClosed pins the one documented divergence from the kernel:
// a RAT lemma the kernel accepts is rejected out of core, with a
// diagnostic saying why — never accepted, never misreported.
func TestRATFailsClosed(t *testing.T) {
	// (x1 x2), (-x1 x2), (-x2): adding (x1) is RAT on pivot x1 (sole
	// candidate -x1 x2 resolves to (x2 x2), refuted via clause 1).
	f := mkFormula(2, []int{1, 2}, []int{-1, 2}, []int{-2})
	proof := "4 1 0 -2 1 0\n5 0 3 4 2 0\n"
	if _, err := kernelcheck.CheckLRAT(f, drat.BytesSource(proof), checker.Options{}); err != nil {
		t.Fatalf("kernel rejected the RAT proof the test depends on: %v", err)
	}
	_, err := CheckLRAT(f, drat.BytesSource(proof), testOpts(t, tinyBudget))
	if err == nil {
		t.Fatal("ooc accepted a RAT lemma; it must fail closed")
	}
	var ce *checker.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("RAT rejection is %T, want *CheckError: %v", err, err)
	}
	if ce.ClauseID != 4 || !strings.Contains(ce.Detail, "out of core") {
		t.Fatalf("unexpected RAT rejection: %+v", ce)
	}
}

// TestOrderViolationMatchesKernel pins the deferred-stop machinery: an ID
// that fails to increase — in a window far from the violation's
// references — reports the kernel's exact diagnostic, and an empty clause
// verified before the violation wins.
func TestOrderViolationMatchesKernel(t *testing.T) {
	f := chainFormula()
	t.Run("violation-reported", func(t *testing.T) {
		bad := chainProof(2000, "17 2 0 4 0") // 17 <= previous ID 2004
		_, _, kErr, oErr := runBoth(t, f, bad, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr == nil {
			t.Fatal("out-of-order ID accepted")
		}
	})
	t.Run("empty-before-violation-wins", func(t *testing.T) {
		proof := chainProof(2000) + "17 2 0 4 0\n"
		_, _, kErr, oErr := runBoth(t, f, proof, tinyBudget)
		wantSameVerdict(t, kErr, oErr)
		if oErr != nil {
			t.Fatalf("violation after the empty clause affected the verdict: %v", oErr)
		}
	})
}

// TestBadHintsMatchKernel sweeps the classic hint corruptions through both
// checkers at a multi-window budget; diagnostics must match byte for byte.
func TestBadHintsMatchKernel(t *testing.T) {
	f := chainFormula()
	cases := map[string]string{
		"hint-not-live":       "2004 2 0 77777 0",
		"hint-two-unassigned": "2004 1 2 0 2 0",
		"no-conflict":         "2004 -1 0 2 0",
		"unknown-delete":      "2004 d 88888 0",
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			bad := chainProofWithID(2000, 2010, []string{line})
			_, _, kErr, oErr := runBoth(t, f, bad, tinyBudget)
			wantSameVerdict(t, kErr, oErr)
			if oErr == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
}

// TestMalformedMatchesKernel: a proof the tokenizer rejects, or one with
// a value beyond the kernel's 31 bits, gets the in-memory kernel's exact
// diagnostic out of core. Both share one scanner that reports a range
// error only after the whole file has parsed, so a syntax error on a
// later line wins over an out-of-range ID on an earlier one.
func TestMalformedMatchesKernel(t *testing.T) {
	f := mkFormula(1, []int{1}, []int{-1})
	cases := map[string]string{
		"hint-range-then-bad-byte":      "3 0 1 3000000000 0\n4 x\n",
		"id-range-then-bad-byte":        "3000000000 0 1 2 0\n4 x\n",
		"deletion-range-then-truncated": "3 d 3000000000 0\n4 0 1",
		"first-range-error-wins":        "3 d 2200000000 0\n4 0 1 -3000000000 0\n",
		"hint-range":                    "3 0 1 3000000000 0\n",
		"id-range":                      "3000000000 0 1 2 0\n",
		"d-for-clause-id":               "d 1 0\n",
		"bad-clause-id":                 "0 1 0\n",
		"truncated-line":                "3",
		"truncated-clause":              "3 1",
		"truncated-hints":               "3 0 1",
		"truncated-deletion":            "3 d 1",
		"d-inside-clause":               "3 1 d 0 1 0\n",
		"d-inside-hints":                "3 0 1 d 0\n",
		"d-inside-deletion":             "3 d 1 d 0\n",
		"negative-deletion":             "3 d -1 0\n",
		"variable-range":                "3 268435457 0 1 0\n",
		"dash-without-digits":           "3 - 0 1 0\n",
		"unexpected-byte":               "3 0 1 x 0\n",
	}
	for name, proof := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, kErr, oErr := runBoth(t, f, proof, tinyBudget)
			wantSameVerdict(t, kErr, oErr)
			if oErr == nil {
				t.Fatal("malformed proof accepted")
			}
		})
	}
}
