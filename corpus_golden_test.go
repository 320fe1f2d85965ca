package satcheck_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"satcheck"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/corpus/golden.json from the current solver+checker behavior")

// goldenCheck is the recorded behavior of one checker on one corpus instance.
type goldenCheck struct {
	CoreClauses  int   `json:"coreClauses"`
	CoreVars     int   `json:"coreVars"`
	Resolutions  int64 `json:"resolutions"`
	ClausesBuilt int   `json:"clausesBuilt"`
}

// goldenEntry is the recorded verdict profile of one corpus instance.
// LRATSha256 is the SHA-256 of TraceToLRAT's output: the bytes the
// benchmark's lrat-kernel workload checks.
type goldenEntry struct {
	Status     string                 `json:"status"`
	Learned    int                    `json:"learnedClauses,omitempty"`
	Checks     map[string]goldenCheck `json:"checks,omitempty"`
	LRATSha256 string                 `json:"lratSha256,omitempty"`
}

var goldenMethods = map[string]satcheck.Method{
	"depth-first":   satcheck.DepthFirst,
	"breadth-first": satcheck.BreadthFirst,
	"hybrid":        satcheck.Hybrid,
	"parallel":      satcheck.Parallel,
}

// TestGoldenVerdicts pins the exact verdict, unsat-core size, and resolution
// counts of every committed corpus instance across all four native checkers,
// and the exact bytes TraceToLRAT writes for it.
// The file glob is the source of truth: adding a .cnf without regenerating the
// golden file fails, as does a golden entry whose instance was deleted. After
// a deliberate behavior change, regenerate with:
//
//	go test . -run TestGoldenVerdicts -update-golden
func TestGoldenVerdicts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.cnf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus instances found")
	}
	got := map[string]goldenEntry{}
	for _, path := range files {
		name := filepath.Base(path)
		f, err := satcheck.ParseDimacsFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := satcheck.SolveWithProof(f, satcheck.SolverOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entry := goldenEntry{Status: run.Status.String()}
		if run.Status == satcheck.StatusUnsat {
			entry.Checks = map[string]goldenCheck{}
			for mname, m := range goldenMethods {
				res, err := satcheck.Check(f, run.Trace, m, satcheck.CheckOptions{})
				if err != nil {
					t.Fatalf("%s: %s checker rejected a valid proof: %v", name, mname, err)
				}
				entry.Learned = res.LearnedTotal
				entry.Checks[mname] = goldenCheck{
					CoreClauses:  len(res.CoreClauses),
					CoreVars:     res.CoreVars,
					Resolutions:  res.ResolutionSteps,
					ClausesBuilt: res.ClausesBuilt,
				}
			}
			var lrat bytes.Buffer
			if _, err := satcheck.TraceToLRAT(f, run.Trace, &lrat, satcheck.CheckOptions{}); err != nil {
				t.Fatalf("%s: TraceToLRAT: %v", name, err)
			}
			sum := sha256.Sum256(lrat.Bytes())
			entry.LRATSha256 = hex.EncodeToString(sum[:])
		}
		got[name] = entry
	}

	goldenPath := filepath.Join("testdata", "corpus", "golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w, ok := want[n]
		if !ok {
			t.Errorf("%s: no golden entry (new corpus file? run with -update-golden)", n)
			continue
		}
		if !reflect.DeepEqual(got[n], w) {
			t.Errorf("%s: behavior drifted from golden:\n got: %+v\nwant: %+v", n, got[n], w)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: golden entry with no corpus file", n)
		}
	}
}
