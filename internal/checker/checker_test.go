package checker

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"satcheck/internal/cnf"
	"satcheck/internal/solver"
	"satcheck/internal/testutil"
	"satcheck/internal/trace"
)

// solveUnsat solves f and returns its trace; it fails the test unless f is
// UNSAT.
func solveUnsat(t *testing.T, f *cnf.Formula, opts solver.Options) (*trace.MemoryTrace, solver.Stats) {
	t.Helper()
	s, err := solver.New(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != solver.StatusUnsat {
		t.Fatalf("expected UNSAT, got %v", st)
	}
	return mt, s.Stats()
}

// php returns the pigeonhole formula PHP(holes+1, holes).
func php(holes int) *cnf.Formula {
	pigeons := holes + 1
	f := cnf.NewFormula(pigeons * holes)
	v := func(p, h int) int { return p*holes + h + 1 }
	for p := 0; p < pigeons; p++ {
		cl := make([]int, holes)
		for h := range cl {
			cl[h] = v(p, h)
		}
		f.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	return f
}

type method struct {
	name  string
	check func(*cnf.Formula, trace.Source, Options) (*Result, error)
}

func methods() []method {
	return []method{
		{"depth-first", DepthFirst},
		{"breadth-first", BreadthFirst},
		{"hybrid", Hybrid},
		{"parallel", Parallel},
	}
}

func TestAcceptsValidProofs(t *testing.T) {
	f := php(5)
	mt, stats := solveUnsat(t, f, solver.Options{})
	for _, m := range methods() {
		res, err := m.check(f, mt, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.LearnedTotal != int(stats.Learned) {
			t.Errorf("%s: LearnedTotal = %d, want %d", m.name, res.LearnedTotal, stats.Learned)
		}
		if res.ResolutionSteps == 0 {
			t.Errorf("%s: no resolution steps counted", m.name)
		}
	}
}

// TestRandomUnsatProofsAllConfigs is the central soundness/completeness
// property: for random UNSAT formulas under every solver configuration,
// every checker accepts the trace.
func TestRandomUnsatProofsAllConfigs(t *testing.T) {
	configs := []solver.Options{
		{},
		{DisableMinimize: true},
		{RecursiveMinimize: true},
		{DisableRestarts: true, DisableReduce: true},
		{RestartBase: 1},
		{RecursiveMinimize: true, RestartBase: 1},
		{DisableMinimize: true, DisablePhaseSaving: true},
	}
	rng := rand.New(rand.NewSource(77))
	checked := 0
	prop := func() bool {
		f := testutil.RandomFormula(rng, 8, 35, 3)
		if sat, _ := testutil.BruteForceSat(f); sat {
			return true
		}
		opts := configs[rng.Intn(len(configs))]
		mt, _ := solveUnsat(t, f, opts)
		for _, m := range methods() {
			if _, err := m.check(f, mt, Options{}); err != nil {
				t.Logf("%s rejected valid proof of %s: %v", m.name, cnf.DimacsString(f), err)
				return false
			}
		}
		checked++
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if checked < 50 {
		t.Errorf("only %d UNSAT formulas exercised; generator drifted", checked)
	}
}

func TestEmptyClauseInInput(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(1, 2)
	f.Add(cnf.Clause{})
	mt, _ := solveUnsat(t, f, solver.Options{})
	for _, m := range methods() {
		res, err := m.check(f, mt, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.ResolutionSteps != 0 {
			t.Errorf("%s: empty input clause needs no resolutions, did %d", m.name, res.ResolutionSteps)
		}
	}
}

func TestBCPOnlyRefutation(t *testing.T) {
	// UNSAT purely at level 0: no learned clauses at all.
	f := cnf.NewFormula(3)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-1, 3)
	f.AddClause(-2, -3)
	mt, stats := solveUnsat(t, f, solver.Options{})
	if stats.Learned != 0 {
		t.Fatalf("expected pure BCP refutation, learned %d", stats.Learned)
	}
	for _, m := range methods() {
		res, err := m.check(f, mt, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.ClausesBuilt != 0 {
			t.Errorf("%s: built %d clauses with an empty trace", m.name, res.ClausesBuilt)
		}
	}
}

func TestDepthFirstCore(t *testing.T) {
	// PHP plus irrelevant satisfiable padding: the core must not contain
	// padding clauses, and must itself be UNSAT.
	f := php(4)
	base := f.NumClauses()
	pad := f.NumVars
	for i := 1; i <= 5; i++ {
		f.AddClause(pad+i, pad+i+1) // satisfiable chain over fresh vars
	}
	mt, _ := solveUnsat(t, f, solver.Options{})
	res, err := DepthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoreClauses) == 0 {
		t.Fatal("no core returned")
	}
	for _, id := range res.CoreClauses {
		if id >= base {
			t.Errorf("core contains padding clause %d", id)
		}
	}
	sub, err := f.SubFormula(res.CoreClauses)
	if err != nil {
		t.Fatal(err)
	}
	if sat, _ := testutil.BruteForceSat(sub); sat {
		t.Error("extracted core is satisfiable")
	}
	if res.CoreVars <= 0 || res.CoreVars > f.NumVars {
		t.Errorf("CoreVars = %d out of range", res.CoreVars)
	}
}

func TestHybridCoreIsUnsatSuperset(t *testing.T) {
	f := php(4)
	mt, _ := solveUnsat(t, f, solver.Options{})
	dfRes, err := DepthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hyRes, err := Hybrid(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dfSet := map[int]bool{}
	for _, id := range dfRes.CoreClauses {
		dfSet[id] = true
	}
	hySet := map[int]bool{}
	for _, id := range hyRes.CoreClauses {
		hySet[id] = true
	}
	for id := range dfSet {
		if !hySet[id] {
			t.Errorf("hybrid core misses depth-first core clause %d", id)
		}
	}
	sub, err := f.SubFormula(hyRes.CoreClauses)
	if err != nil {
		t.Fatal(err)
	}
	if sat, _ := testutil.BruteForceSat(sub); sat {
		t.Error("hybrid core is satisfiable")
	}
}

func TestBreadthFirstHasNoCore(t *testing.T) {
	f := php(4)
	mt, _ := solveUnsat(t, f, solver.Options{})
	res, err := BreadthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreClauses != nil {
		t.Error("breadth-first should not claim a core")
	}
}

func TestBuiltStatistics(t *testing.T) {
	f := php(6)
	mt, stats := solveUnsat(t, f, solver.Options{})
	df, err := DepthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BreadthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Hybrid(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := int(stats.Learned)
	if bf.ClausesBuilt != total {
		t.Errorf("breadth-first built %d, want all %d", bf.ClausesBuilt, total)
	}
	if df.ClausesBuilt > total || df.ClausesBuilt <= 0 {
		t.Errorf("depth-first built %d of %d", df.ClausesBuilt, total)
	}
	if hy.ClausesBuilt < df.ClausesBuilt || hy.ClausesBuilt > total {
		t.Errorf("hybrid built %d, want in [%d,%d]", hy.ClausesBuilt, df.ClausesBuilt, total)
	}
	if f := df.BuiltFraction(); f <= 0 || f > 1 {
		t.Errorf("BuiltFraction = %v", f)
	}
	if bf.PeakMemWords >= df.PeakMemWords {
		t.Errorf("breadth-first peak %d not below depth-first peak %d", bf.PeakMemWords, df.PeakMemWords)
	}
}

func TestMemoryLimit(t *testing.T) {
	f := php(6)
	mt, _ := solveUnsat(t, f, solver.Options{})
	bfUnlimited, err := BreadthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A budget below DF's needs but above BF's: DF must fail with the
	// structured memory diagnostic, BF must pass — the paper's Table 2 “*”.
	budget := bfUnlimited.PeakMemWords * 2
	var ce *CheckError
	_, err = DepthFirst(f, mt, Options{MemLimitWords: budget})
	if !errors.As(err, &ce) || ce.Kind != FailMemoryLimit {
		t.Errorf("depth-first under budget %d: err = %v, want FailMemoryLimit", budget, err)
	}
	if _, err := BreadthFirst(f, mt, Options{MemLimitWords: budget}); err != nil {
		t.Errorf("breadth-first under same budget failed: %v", err)
	}
}

func TestCountsOnDiskMatchesInMemory(t *testing.T) {
	f := php(5)
	mt, _ := solveUnsat(t, f, solver.Options{})
	inMem, err := BreadthFirst(f, mt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range []int{1, 7, 1 << 20} {
		onDisk, err := BreadthFirst(f, mt, Options{CountsOnDisk: true, CountRange: rng})
		if err != nil {
			t.Fatalf("CountRange=%d: %v", rng, err)
		}
		if onDisk.ClausesBuilt != inMem.ClausesBuilt || onDisk.ResolutionSteps != inMem.ResolutionSteps {
			t.Errorf("CountRange=%d: built/steps %d/%d, want %d/%d",
				rng, onDisk.ClausesBuilt, onDisk.ResolutionSteps, inMem.ClausesBuilt, inMem.ResolutionSteps)
		}
	}
}

func TestFormulaTraceMismatch(t *testing.T) {
	f := php(4)
	mt, _ := solveUnsat(t, f, solver.Options{})
	g := f.Clone()
	g.AddClause(1, 2) // extra clause shifts learned IDs
	for _, m := range methods() {
		if _, err := m.check(g, mt, Options{}); err == nil {
			t.Errorf("%s accepted a trace for a different formula", m.name)
		}
	}
}

func TestCheckErrorFormatting(t *testing.T) {
	e := &CheckError{Kind: FailResolution, ClauseID: 12, Step: 3, Detail: "boom", Err: errors.New("inner")}
	msg := e.Error()
	for _, want := range []string{"invalid-resolution", "clause 12", "step 3", "boom", "inner"} {
		if !containsStr(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if !errors.Is(e, e.Err) {
		t.Error("Unwrap broken")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFailureKindStrings(t *testing.T) {
	kinds := []FailureKind{FailTrace, FailBadSourceRef, FailResolution,
		FailNotConflicting, FailBadAntecedent, FailNotEmpty, FailMemoryLimit}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestLevel0TableDuplicate(t *testing.T) {
	l0 := newLevel0Table(0)
	if err := l0.add(3, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := l0.add(3, false, 2); err == nil {
		t.Error("duplicate level-0 variable accepted")
	}
}

// TestLevel0TableGrowth pins the level-0 table's sizing: presized to the
// formula's variables, recording every one of them allocates nothing more,
// and past that the table grows geometrically, once per doubling
// (log2(10,000) is about 14), not once per new variable.
func TestLevel0TableGrowth(t *testing.T) {
	const n = 10000
	var l0 *level0Table
	fill := func(numVars int) func() {
		return func() {
			l0 = newLevel0Table(numVars)
			for v := 1; v <= n; v++ {
				if err := l0.add(cnf.Var(v), v%2 == 0, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if a := testing.AllocsPerRun(3, fill(n)); a > 2 {
		t.Errorf("presized table: %.0f allocations for %d records, want at most 2", a, n)
	}
	if a := testing.AllocsPerRun(3, fill(0)); a > 17 {
		t.Errorf("growing table: %.0f allocations for %d records, want at most 17", a, n)
	}
	if rec, ok := l0.get(n); !ok || !rec.value || rec.ante != n || rec.pos != n-1 {
		t.Errorf("variable %d after growth: %+v, %v", n, rec, ok)
	}
	if err := l0.add(n, true, 0); err == nil {
		t.Error("duplicate level-0 variable accepted after growth")
	}
}

func TestValidateAntecedentRejections(t *testing.T) {
	l0 := newLevel0Table(0)
	// pos 0: var 1 true with ante 0; pos 1: var 2 false; pos 2: var 3 true.
	if err := l0.add(1, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := l0.add(2, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := l0.add(3, true, 2); err != nil {
		t.Fatal(err)
	}
	cl := func(lits ...int) cnf.Clause {
		c := make(cnf.Clause, 0, len(lits))
		for _, d := range lits {
			c = append(c, cnf.LitFromDimacs(d))
		}
		out, _ := c.Normalize()
		return out
	}
	rec3 := l0.recs[3]
	cases := map[string]cnf.Clause{
		"missing implied literal":  cl(-1, 2),   // no literal of var 3
		"false literal of own var": cl(3, -3),   // contains both (tautology): has -3
		"unassigned other literal": cl(3, 9),    // var 9 not at level 0
		"true other literal":       cl(3, -2),   // -2 is true (var 2 false)
		"later-assigned literal":   cl(3, -3+6), // placeholder replaced below
	}
	delete(cases, "later-assigned literal")
	for name, ante := range cases {
		if err := validateAntecedent(ante, 99, 3, rec3, l0); err == nil {
			t.Errorf("%s: accepted %s as antecedent of var 3", name, ante)
		}
	}
	// Later-assigned: antecedent of var 1 (pos 0) contains literal of var 2
	// (pos 1 >= pos 0).
	rec1 := l0.recs[1]
	if err := validateAntecedent(cl(1, 2), 99, 1, rec1, l0); err == nil {
		t.Error("antecedent with later-assigned literal accepted")
	}
	// A genuinely valid antecedent passes: var 3 true, other literal 2
	// (false since var 2 = false, assigned earlier).
	if err := validateAntecedent(cl(3, 2), 99, 3, rec3, l0); err != nil {
		t.Errorf("valid antecedent rejected: %v", err)
	}
}

// TestRecursiveMinimizationProofsOnHardInstance runs the recursive-
// minimization solver on a search-heavy instance and validates the proof
// with every checker — the end-to-end version of the solver package's
// replay test, covering the final level-0 stage too.
func TestRecursiveMinimizationProofsOnHardInstance(t *testing.T) {
	f := php(6)
	mt, stats := solveUnsat(t, f, solver.Options{RecursiveMinimize: true})
	if stats.Minimized == 0 {
		t.Fatal("recursive minimization never fired on PHP")
	}
	for _, m := range methods() {
		if _, err := m.check(f, mt, Options{}); err != nil {
			t.Fatalf("%s rejected recursive-minimization proof: %v", m.name, err)
		}
	}
}
