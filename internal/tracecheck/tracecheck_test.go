package tracecheck

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"satcheck/internal/cnf"
	"satcheck/internal/dp"
	"satcheck/internal/gen"
	"satcheck/internal/kernel"
	"satcheck/internal/solver"
	"satcheck/internal/testutil"
	"satcheck/internal/trace"
)

func solveTrace(t *testing.T, f *cnf.Formula) *trace.MemoryTrace {
	t.Helper()
	s, err := solver.New(f, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	st, err := s.Solve()
	if err != nil || st != solver.StatusUnsat {
		t.Fatalf("st=%v err=%v", st, err)
	}
	return mt
}

// replayKernel replays the TraceCheck text against f and checks the hinted
// clauses in the kernel; it returns the clauses Replay visited.
func replayKernel(f *cnf.Formula, text string) ([]Clause, error) {
	var got []Clause
	err := Replay(f, strings.NewReader(text), func(c Clause) error {
		got = append(got, Clause{ID: c.ID, Lits: slices.Clone(c.Lits),
			Antecedents: slices.Clone(c.Antecedents), Hints: slices.Clone(c.Hints)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := kernel.Check(kernelFormula(f), kernelProof(got), kernel.Options{}); err != nil {
		return nil, err
	}
	return got, nil
}

// exportVerify exports mt and checks the export through Replay and the
// kernel; it returns the export's statistics and the replayed clauses.
func exportVerify(t *testing.T, f *cnf.Formula, mt *trace.MemoryTrace) (*ExportStats, []Clause) {
	t.Helper()
	var sb strings.Builder
	es, err := Export(f, mt, &sb)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	replayed, err := replayKernel(f, sb.String())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return es, replayed
}

func TestExportVerifyRoundTrip(t *testing.T) {
	for _, ins := range []gen.Instance{
		gen.Pigeonhole(5),
		gen.TseitinCharge(12, 3),
		gen.CECAdder(6),
		gen.Scheduling(10, 3, 5, 1),
	} {
		mt := solveTrace(t, ins.F)
		es, replayed := exportVerify(t, ins.F, mt)
		if es.Originals != ins.F.NumClauses() {
			t.Errorf("%s: exported %d originals, want %d", ins.Name, es.Originals, ins.F.NumClauses())
		}
		if len(replayed) != es.Derived {
			t.Errorf("%s: replayed %d derived, exported %d", ins.Name, len(replayed), es.Derived)
		}
		// Replay orders each chain as Derive does.
		i := 0
		if err := Derive(ins.F, mt, func(c Clause) error {
			if r := replayed[i]; r.ID != c.ID || !slices.Equal(r.Lits, c.Lits) || !slices.Equal(r.Hints, c.Hints) {
				t.Errorf("%s: replayed %d %v hints %v, derived %d %v hints %v", ins.Name, r.ID, r.Lits, r.Hints, c.ID, c.Lits, c.Hints)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if es.Resolutions == 0 {
			t.Errorf("%s: no resolutions exported", ins.Name)
		}
	}
}

func TestExportVerifyEmptyClauseInput(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(1)
	f.Add(cnf.Clause{})
	mt := solveTrace(t, f)
	es, replayed := exportVerify(t, f, mt)
	if es.Derived != 0 {
		t.Errorf("input empty clause needs no derived lines, got %d", es.Derived)
	}
	// Replay restates the formula's empty clause, as Derive does.
	if want := []Clause{{ID: 3, Lits: cnf.Clause{}, Hints: []int{2}}}; len(replayed) != 1 ||
		replayed[0].ID != 3 || len(replayed[0].Lits) != 0 || !slices.Equal(replayed[0].Hints, want[0].Hints) {
		t.Errorf("replayed %+v, want %+v", replayed, want)
	}
}

func TestExportVerifyBCPOnly(t *testing.T) {
	// Level-0 refutation: the whole proof is one final chain.
	f := cnf.NewFormula(3)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-1, 3)
	f.AddClause(-2, -3)
	mt := solveTrace(t, f)
	es, replayed := exportVerify(t, f, mt)
	if es.Derived != 1 || len(replayed) != 1 {
		t.Errorf("expected exactly the final chain, got %d derived", es.Derived)
	}
}

func TestExportDPProofs(t *testing.T) {
	// Davis-Putnam refutations export to TraceCheck too.
	ins := gen.Pigeonhole(4)
	s, err := dp.New(ins.F, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	st, _, err := s.Solve()
	if err != nil || st != solver.StatusUnsat {
		t.Fatalf("st=%v err=%v", st, err)
	}
	exportVerify(t, ins.F, mt)
}

func TestExportRandomUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	prop := func() bool {
		f := testutil.RandomFormula(rng, 7, 30, 3)
		if sat, _ := testutil.BruteForceSat(f); sat {
			return true
		}
		mt := solveTrace(t, f)
		var sb strings.Builder
		if _, err := Export(f, mt, &sb); err != nil {
			t.Logf("export failed on %s: %v", cnf.DimacsString(f), err)
			return false
		}
		if _, err := replayKernel(f, sb.String()); err != nil {
			t.Logf("replay failed on %s: %v", cnf.DimacsString(f), err)
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
	if checked < 20 {
		t.Errorf("only %d UNSAT formulas exercised", checked)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad token":          "1 x 0 0\n",
		"too short":          "1 0\n",
		"zero index":         "0 1 0 0\n",
		"negative ante":      "2 1 0 -1 0\n",
		"missing terminator": "1 2 3\n",
		"trailing junk":      "1 2 0 0 7\n",
		// Past the variable cap, a literal would truncate to 32 bits:
		// -4294967297 to -1, 2147483648 to an invalid literal.
		"literal past 32 bits": "2 -4294967297 0 0\n",
		"literal past 31 bits": "1 2147483648 0 0\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParseSkipsComments(t *testing.T) {
	in := "c header\n1 5 0 0\n# note\n2 -5 0 0\n3 0 1 2 0\n"
	clauses, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 3 || len(clauses[2].Antecedents) != 2 {
		t.Errorf("clauses = %+v", clauses)
	}
}

// TestVerifyRejections pins what the producer and the kernel refuse,
// and what the kernel's semantics accept where an exact-resolvent replay
// would not.
func TestVerifyRejections(t *testing.T) {
	f := cnf.NewFormula(2) // x2 occurs in no clause
	f.AddClause(1)
	f.AddClause(-1)
	cases := map[string]string{
		"no empty clause":         "1 1 0 0\n2 -1 0 0\n",
		"chain misses its clause": "1 1 0 0\n2 -1 0 0\n3 -1 0 1 0\n4 0 2 3 0\n",
		"undeclared antecedent":   "1 1 0 0\n2 -1 0 0\n3 0 1 9 0\n",
		"later antecedent":        "1 1 0 0\n3 0 1 2 0\n4 -1 0 0\n",
		"duplicate index":         "1 1 0 0\n1 1 0 0\n2 -1 0 0\n3 0 1 2 0\n",
		"decreasing index":        "2 -1 0 0\n1 1 0 0\n3 0 1 2 0\n",
		"original mismatch":       "1 -1 0 0\n2 1 0 0\n3 0 1 2 0\n",
		"original beyond":         "1 1 0 0\n2 -1 0 0\n5 1 0 0\n6 0 1 2 0\n",
		"empty original":          "1 0 0\n",
		"literal beyond formula":  "1 1 0 0\n2 -1 0 0\n3 3 0 1 0\n4 0 1 2 0\n",
		"invalid chain":           "1 1 0 0\n2 -1 0 0\n3 0 1 1 0\n",
	}
	for name, in := range cases {
		if _, err := replayKernel(f, in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Valid refutations of (x1) (¬x1∨x2) (¬x2), x3 occurring in none.
	g := cnf.NewFormula(3)
	g.AddClause(1)
	g.AddClause(-1, 2)
	g.AddClause(-2)
	const originals = "1 1 0 0\n2 -1 2 0 0\n3 -2 0 0\n"
	for name, in := range map[string]string{
		"refutation": originals + "4 0 3 2 1 0\n",
		// A weakening of its chain's resolvent x2, and a chain listed in
		// an order that does not resolve linearly: the kernel follows the
		// hints, so both are sound.
		"weakening":       originals + "4 2 3 0 1 2 0\n5 0 3 2 1 0\n",
		"reordered chain": originals + "4 0 1 3 2 0\n",
	} {
		if _, err := replayKernel(g, in); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// TestVerifyDetectsTamperedExport flips a literal of a derived clause of
// an export: the clause no longer follows from its chain.
func TestVerifyDetectsTamperedExport(t *testing.T) {
	ins := gen.Pigeonhole(4)
	mt := solveTrace(t, ins.F)
	var sb strings.Builder
	if _, err := Export(ins.F, mt, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Tamper with a derived clause's literals (flip the first literal of the
	// last derived line that has literals).
	for i := len(lines) - 1; i >= 0; i-- {
		fields := strings.Fields(lines[i])
		if len(fields) >= 4 && fields[1] != "0" && strings.Contains(lines[i], " 0 ") {
			if fields[1][0] == '-' {
				fields[1] = fields[1][1:]
			} else {
				fields[1] = "-" + fields[1]
			}
			lines[i] = strings.Join(fields, " ")
			break
		}
	}
	if _, err := replayKernel(ins.F, strings.Join(lines, "\n")+"\n"); err == nil {
		t.Error("tampered export verified")
	}
}
