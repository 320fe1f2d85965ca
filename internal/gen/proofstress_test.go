package gen_test

import (
	"bytes"
	"strings"
	"testing"

	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
)

// TestStressProofValid checks that the streamed stress pair really is a
// valid refutation — in the in-memory kernel and out of core, with the
// designed core {1,2} — and that a budget far below the proof's in-memory
// footprint splits it into spilling windows.
func TestStressProofValid(t *testing.T) {
	o := gen.StressOpts{Lemmas: 4000, Width: 8, Gap: 1000}
	f := gen.StressFormula(o)

	var lrat bytes.Buffer
	if err := gen.WriteStressLRAT(&lrat, o); err != nil {
		t.Fatal(err)
	}
	src := drat.BytesSource(lrat.Bytes())
	kres, err := kernelcheck.CheckLRAT(f, src, checker.Options{})
	if err != nil {
		t.Fatalf("kernel rejected the stress LRAT proof: %v", err)
	}
	if len(kres.CoreClauses) != 2 || kres.CoreClauses[0] != 0 || kres.CoreClauses[1] != 1 {
		t.Fatalf("stress core should be the two originals, got %v", kres.CoreClauses)
	}

	ores, err := ooc.CheckLRAT(f, src, checker.Options{MemBudgetBytes: 128 << 10, TempDir: t.TempDir()})
	if err != nil {
		t.Fatalf("ooc rejected the stress LRAT proof: %v", err)
	}
	if ores.OOCWindows < 2 || ores.SpilledClauses < 1 {
		t.Fatalf("stress proof did not stress: windows=%d spilled=%d", ores.OOCWindows, ores.SpilledClauses)
	}
	if ores.ClausesBuilt != kres.ClausesBuilt || ores.ResolutionSteps != kres.ResolutionSteps ||
		len(ores.CoreClauses) != len(kres.CoreClauses) {
		t.Fatalf("ooc stats diverge from kernel: %+v vs %+v", ores, kres)
	}
}

// TestStressCNFRoundTrips parses the streamed DIMACS back and compares it
// with StressFormula.
func TestStressCNFRoundTrips(t *testing.T) {
	o := gen.StressOpts{Lemmas: 100, Width: 8, Gap: 16}
	var buf bytes.Buffer
	if err := gen.WriteStressCNF(&buf, o); err != nil {
		t.Fatal(err)
	}
	parsed, err := cnf.ParseDimacs(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := gen.StressFormula(o)
	if parsed.NumVars != want.NumVars || parsed.NumClauses() != want.NumClauses() {
		t.Fatalf("round trip mismatch: got %d vars %d clauses, want %d/%d",
			parsed.NumVars, parsed.NumClauses(), want.NumVars, want.NumClauses())
	}
}

// TestStressDRATValid verifies both DRAT encodings through the kernel path.
func TestStressDRATValid(t *testing.T) {
	o := gen.StressOpts{Lemmas: 500, Width: 8, Gap: 100}
	f := gen.StressFormula(o)
	for _, mode := range []string{"ascii", "binary"} {
		t.Run(mode, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gen.WriteStressDRAT(&buf, o, mode == "binary"); err != nil {
				t.Fatal(err)
			}
			if _, err := kernelcheck.KernelCheckDRAT(f, drat.BytesSource(buf.Bytes()), checker.Options{}); err != nil {
				t.Fatalf("kernel rejected the %s stress DRAT proof: %v", mode, err)
			}
			if _, err := ooc.CheckDRAT(f, drat.BytesSource(buf.Bytes()),
				checker.Options{MemBudgetBytes: 128 << 10, TempDir: t.TempDir()}); err != nil {
				t.Fatalf("ooc rejected the %s stress DRAT proof: %v", mode, err)
			}
		})
	}
}
