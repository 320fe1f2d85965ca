package main

import (
	"context"
	"os"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/trace"
)

// TestMain lets the test binary serve as the library child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics the code produces, with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile(testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !sameSet(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	units := map[string]string{}
	for _, e := range bf.EndToEnd {
		units[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", e.Name, e.Bound, e.Better)
		}
	}
	checkUnits(t, "end_to_end", units, endToEnd)
	units = map[string]string{}
	for _, p := range bf.PerLayer {
		units[p.Name] = p.Unit
	}
	checkUnits(t, "per_layer", units, perLayer)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func checkUnits(t *testing.T, section string, file map[string]string, code []metricDef) {
	t.Helper()
	if len(file) != len(code) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", section, len(file), len(code))
	}
	for _, d := range code {
		if u, ok := file[d.name]; !ok || u != d.unit {
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in code", section, d.name, u, d.unit)
		}
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestKernelAndHybridAgree checks the known answers of the trace corpus
// under both methods: valid solver proofs accepted, the mutant rejected.
func TestKernelAndHybridAgree(t *testing.T) {
	dir := t.TempDir()
	c, err := traceCorpus(dir, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range c.Items {
		f, err := satcheck.ParseDimacsFile(it.CNF)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []satcheck.Method{satcheck.Kernel, satcheck.Hybrid} {
			rep, err := satcheck.RunCheck(context.Background(), satcheck.CheckRequest{
				Formula: f, Trace: trace.FileSource(it.Proof), Method: m,
				Options: satcheck.CheckOptions{TempDir: dir}})
			if err != nil {
				t.Fatalf("%s %v: %v", it.Name, m, err)
			}
			if rep.Valid != it.Valid {
				t.Errorf("%s %v: valid=%v, known answer %v", it.Name, m, rep.Valid, it.Valid)
			}
		}
	}
}

// TestInputsAreSeeded checks that a seed always yields the same inputs and
// another seed different ones.
func TestInputsAreSeeded(t *testing.T) {
	digest := func(seed int64) string {
		c, err := serviceCorpus(t.TempDir(), seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.digest(); err != nil {
			t.Fatal(err)
		}
		return c.SHA256
	}
	if a, b := digest(3), digest(3); a != b {
		t.Errorf("seed 3 gave %s and %s", a, b)
	}
	if digest(3) == digest(4) {
		t.Error("seeds 3 and 4 gave identical inputs")
	}
}

func TestTruncateLRAT(t *testing.T) {
	proof := []byte("5 1 0 1 2 0\n5 d 1 0\n6 0 5 3 0\n")
	cut, err := truncateLRAT(proof)
	if err != nil {
		t.Fatal(err)
	}
	if string(cut) != "5 1 0 1 2 0\n5 d 1 0\n" {
		t.Errorf("truncated to %q", cut)
	}
	if n := lratAdditions(proof); n != 2 {
		t.Errorf("%d additions, want 2", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

func TestMedianPass(t *testing.T) {
	// Nine inputs checked once a pass: p50 is the fifth-fastest input's
	// median and p90 the slowest one's, however their checks jitter.
	c := &corpus{Items: make([]item, 9)}
	var samples []sample
	for i := range c.Items {
		c.Items[i].Lemmas = 10
		for _, ms := range []float64{float64(10 * (9 - i)), float64(10*(9-i)) + 1, 1000} {
			samples = append(samples, sample{Item: i, MS: ms, Phase: phaseMeasured})
		}
	}
	samples = append(samples, sample{Item: 0, MS: 1, Phase: phaseWarmup}, sample{Item: 0, MS: 1, Phase: phaseMeasured, Err: "HTTP 503"})
	p := medianPass(c, samples)
	if got := p.percentile(0.5); got != 51 {
		t.Errorf("p50 %v, want 51", got)
	}
	if got := p.percentile(0.9); got != 91 {
		t.Errorf("p90 %v, want 91", got)
	}
	// A pass that checks one input three times and another once.
	c = &corpus{Items: []item{{Repeat: 3, Lemmas: 100}, {Lemmas: 40}}}
	p = medianPass(c, []sample{{Item: 0, MS: 5, Phase: phaseMeasured}, {Item: 1, MS: 1000, Phase: phaseMeasured}})
	if got := p.percentile(0.5); got != 5 {
		t.Errorf("weighted p50 %v, want 5", got)
	}
	if got := p.percentile(0.9); got != 1000 {
		t.Errorf("weighted p90 %v, want 1000", got)
	}
	if checks, lemmas, seconds := p.totals(); checks != 4 || lemmas != 340 || seconds != 1.015 {
		t.Errorf("totals %v checks, %v lemmas, %v s; want 4, 340, 1.015", checks, lemmas, seconds)
	}
}

// TestSmoke runs one traced pass of every workload (its untraced half
// gives the end-to-end metrics) and checks that each reports every metric
// with its unit and no wrong or failed check. The service workloads build
// zcheckd and are skipped by -short.
func TestSmoke(t *testing.T) {
	cfg, cleanup, err := newConfig(testRoot(t), 1, time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	cfg.scale, cfg.setupGap = 40, 0
	for _, w := range workloads {
		if w.service && testing.Short() {
			continue
		}
		c, o, err := measureWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, traced := range []bool{false, true} {
			r, err := summarize(w.name, cfg.seed, traced, c, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.WrongVerdicts != 0 || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d wrong, %d failed of %d", w.name, traced, r.WrongVerdicts, r.Failed, r.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			if traced && !w.service && r.Metrics["span_coverage"].Value < 0.9 {
				t.Errorf("%s: span_coverage %v < 0.9", w.name, r.Metrics["span_coverage"].Value)
			}
		}
	}
}
