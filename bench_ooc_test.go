// Benchmarks for the out-of-core checker (Ablation H, BENCH_ooc.json): the
// same generated stress proof verified by the in-memory kernel and by the
// window-shifted ooc checker at descending memory budgets. The interesting
// numbers are the custom metrics — peakKB collapses by orders of magnitude
// while the wall clock stays close to the kernel, because windows touch the
// proof bytes once via mmap and spill only the still-live clause bodies.
package satcheck_test

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"satcheck"
	"satcheck/internal/gen"
	"satcheck/internal/ooc"
)

// oocBenchOpts is sized so the in-memory parse+check image is tens of MB —
// big enough that window budgets in the single-MB range force dozens of
// window shifts and real spill traffic, small enough for -benchtime 1x runs.
var oocBenchOpts = gen.StressOpts{Lemmas: 200_000, Width: 64, Gap: 25_000}

func oocBenchArtifacts(b *testing.B) (*satcheck.Formula, string) {
	b.Helper()
	dir := b.TempDir()
	cnfPath := filepath.Join(dir, "stress.cnf")
	lratPath := filepath.Join(dir, "stress.lrat")
	cf, err := os.Create(cnfPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := gen.WriteStressCNF(cf, oocBenchOpts); err != nil {
		b.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		b.Fatal(err)
	}
	pf, err := os.Create(lratPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := gen.WriteStressLRAT(pf, oocBenchOpts); err != nil {
		b.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := satcheck.ParseDimacsFile(cnfPath)
	if err != nil {
		b.Fatal(err)
	}
	return f, lratPath
}

// BenchmarkOOCKernelBaseline is the comparison row: the whole proof parsed
// into memory and checked by the kernel with core marking, end to end from
// the file, exactly what `zverify -format lrat -method kernel -core` runs.
func BenchmarkOOCKernelBaseline(b *testing.B) {
	f, lratPath := oocBenchArtifacts(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *satcheck.CheckResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = satcheck.CheckLRAT(f, satcheck.ProofFileSource(lratPath), satcheck.CheckOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
}

// BenchmarkOOCBudget checks the same proof out of core at descending window
// budgets. peakKB is the checker's memory model (always under the budget);
// windows and spillMB show the out-of-core traffic the budget forces.
func BenchmarkOOCBudget(b *testing.B) {
	f, lratPath := oocBenchArtifacts(b)
	// 4MiB is near the floor for this proof's ID space: the resident
	// per-ID state alone needs ~2.6MB, so the window slice is thin and the
	// shift count is maximal. Budgets below that floor fail closed with
	// FailMemoryLimit rather than thrash (see docs/OOC.md).
	for _, budget := range []int64{64 << 20, 16 << 20, 4 << 20} {
		budget := budget
		b.Run(byteSizeLabel(budget), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var res *satcheck.CheckResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = ooc.CheckLRAT(f, satcheck.ProofFileSource(lratPath),
					satcheck.CheckOptions{MemBudgetBytes: budget})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PeakMemWords)*4/1024, "peakKB")
			b.ReportMetric(float64(res.OOCWindows), "windows")
			b.ReportMetric(float64(res.SpilledBytes)/(1<<20), "spillMB")
		})
	}
}

func byteSizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "MiB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "KiB"
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}
