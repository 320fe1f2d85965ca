// Package checker implements the paper's independent resolution-based
// checker (§3): given the original CNF formula and the trace produced by an
// instrumented CDCL solver, it verifies that an empty clause is derivable
// from the original clauses by resolution — a proof of unsatisfiability that
// does not trust the solver.
//
// Three traversals of the resolution graph are provided:
//
//   - DepthFirst (§3.2): loads the whole trace, builds only the clauses on
//     the path to the empty clause; fastest, yields an unsatisfiable core as
//     a by-product, but holds the trace and every built clause in memory.
//   - BreadthFirst (§3.3): streams the trace twice; pass 1 counts how often
//     each learned clause is used, pass 2 builds clauses in generation order
//     and evicts each one when its uses are exhausted. Memory never exceeds
//     what the solver itself held. Counts can be kept on disk in ranges for
//     the paper's "even one counter per clause may not fit" regime.
//   - Hybrid (the paper's "future work": both advantages): a backward mark
//     phase over on-disk spill files computes exactly the clauses the
//     empty-clause derivation can reach, then a breadth-first pass builds
//     only those, with use-count eviction.
//
// All traversals validate every single step: resolutions must have exactly
// one clashing variable, claimed antecedents must really be antecedents, the
// final conflicting clause must be falsified by the recorded level-0
// assignment, and the derivation must terminate in the empty clause.
// Failures carry structured diagnostics (FailureKind, clause IDs, detail)
// for debugging the solver, as §3.2 prescribes.
//
// Concurrency: the checkers never mutate the formula or the trace. Every
// original clause is cloned before normalization (normalizeOriginals) and
// trace sources are only read through fresh Reader passes, so DepthFirst,
// BreadthFirst and Hybrid are safe to call from many goroutines over a
// shared *cnf.Formula and a shared trace.Source — the contract the zcheckd
// worker pool relies on (proved under -race by TestCheckersConcurrent).
package checker

import (
	"errors"
	"fmt"

	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/trace"
)

// FailureKind classifies why checking failed; it tells the solver developer
// where to look for the bug.
type FailureKind int

// Failure kinds.
const (
	// FailTrace: the trace itself is malformed (bad IDs, missing records).
	FailTrace FailureKind = iota + 1
	// FailBadSourceRef: a resolve source references a clause that does not
	// exist (or, breadth-first, was already consumed).
	FailBadSourceRef
	// FailResolution: a resolution step does not have exactly one clashing
	// variable.
	FailResolution
	// FailNotConflicting: the final conflicting clause is not falsified by
	// the recorded level-0 assignment.
	FailNotConflicting
	// FailBadAntecedent: a clause recorded as a variable's antecedent is not
	// a valid antecedent (not unit on that variable under the earlier
	// assignments).
	FailBadAntecedent
	// FailNotEmpty: the final derivation stopped without reaching the empty
	// clause.
	FailNotEmpty
	// FailMemoryLimit: the checker exceeded its configured memory budget
	// (the paper's depth-first "memory out" rows).
	FailMemoryLimit
	// FailRUP: a clausal (DRUP/DRAT) lemma is neither RUP nor RAT — unit
	// propagation under its negation does not conflict, and no resolution
	// candidate on the pivot rescues it.
	FailRUP
	// FailHint: an LRAT hint does not drive unit propagation as claimed
	// (the hinted clause is neither unit nor conflicting when consumed).
	FailHint
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailTrace:
		return "malformed-trace"
	case FailBadSourceRef:
		return "bad-source-reference"
	case FailResolution:
		return "invalid-resolution"
	case FailNotConflicting:
		return "final-clause-not-conflicting"
	case FailBadAntecedent:
		return "invalid-antecedent"
	case FailNotEmpty:
		return "derivation-not-empty"
	case FailMemoryLimit:
		return "memory-limit"
	case FailRUP:
		return "rup-check-failed"
	case FailHint:
		return "bad-lrat-hint"
	default:
		return fmt.Sprintf("failure(%d)", int(k))
	}
}

// CheckError is the structured diagnostic produced when validation fails:
// "Check Failed" plus as much information as possible about the failure to
// help debug the solver.
type CheckError struct {
	Kind     FailureKind
	ClauseID int    // clause being built, or NoClause
	Step     int    // resolution step index within that clause, or -1
	Detail   string // human-readable specifics
	Err      error  // underlying error, if any
}

// Error implements error.
func (e *CheckError) Error() string {
	msg := fmt.Sprintf("check failed [%s]", e.Kind)
	if e.ClauseID >= 0 {
		msg += fmt.Sprintf(" clause %d", e.ClauseID)
	}
	if e.Step >= 0 {
		msg += fmt.Sprintf(" step %d", e.Step)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *CheckError) Unwrap() error { return e.Err }

func failf(kind FailureKind, clauseID, step int, format string, args ...any) *CheckError {
	return &CheckError{Kind: kind, ClauseID: clauseID, Step: step, Detail: fmt.Sprintf(format, args...)}
}

// Options configures a checking run.
type Options struct {
	// MemLimitWords bounds the checker's deterministic memory model
	// (4-byte words: clause literals, trace integers, counters). 0 means
	// unlimited. Exceeding it aborts with FailMemoryLimit, reproducing the
	// paper's depth-first memory-out rows under an 800MB-style budget.
	MemLimitWords int64
	// CountsOnDisk makes the breadth-first checker keep use counts in a
	// temporary file, computed in ranges of CountRange clauses per counting
	// pass (§3.3: "the clause's total use count is stored in a temporary
	// file ... we may also need to break the first pass into several
	// passes").
	CountsOnDisk bool
	// CountRange is the number of clause counters processed per counting
	// pass when CountsOnDisk is set (default 1<<20).
	CountRange int
	// TempDir overrides the directory for spill files (default os.TempDir).
	TempDir string
	// Interrupt, when non-nil, is polled periodically inside the checking
	// loops; a non-nil return aborts the run with that error. Long-lived
	// callers pass a context's Err method to give each job a deadline
	// (ctx.Err is safe to call from any goroutine).
	Interrupt func() error
	// Parallelism sets the worker count of the Parallel checker; 0 or
	// negative means runtime.GOMAXPROCS(0). The sequential checkers ignore
	// it.
	Parallelism int
	// MemBudgetBytes sizes the out-of-core checker's windows (internal/ooc):
	// resident metadata plus any single window's parse, imports, and kernel
	// state are planned to fit inside it. 0 means the ooc default (256MiB).
	// Checkers other than ooc ignore it; unlike MemLimitWords it is a
	// planning target, not a mid-run abort threshold.
	MemBudgetBytes int64
}

// interruptEvery is how many loop iterations pass between Interrupt polls —
// frequent enough that deadlines bite within microseconds, rare enough to
// stay invisible in profiles.
const interruptEvery = 1024

// poller amortizes Options.Interrupt checks over checker loop iterations.
type poller struct {
	fn func() error
	n  int
}

func (p *poller) poll() error {
	if p.fn == nil {
		return nil
	}
	if p.n++; p.n%interruptEvery != 0 {
		return nil
	}
	return p.fn()
}

// Result reports a successful validation together with the statistics the
// paper's Table 2 and Table 3 are built from.
type Result struct {
	// LearnedTotal is the number of learned clauses recorded in the trace.
	LearnedTotal int
	// ClausesBuilt is the number of learned clauses the checker actually
	// constructed ("Num. Cls Built"). Breadth-first always builds all.
	ClausesBuilt int
	// ResolutionSteps counts validated resolution steps.
	ResolutionSteps int64
	// PeakMemWords is the peak of the deterministic memory model in 4-byte
	// words: live clause literals + trace integers held + counters.
	PeakMemWords int64
	// PeakMemBoundWords, reported by the Parallel checker only, is the
	// deterministic upper bound its concurrent high-water mark is guaranteed
	// to stay within regardless of worker schedule: the sequential setup
	// words (originals, in-memory source lists, mark structures, scheduling
	// arrays) plus the literals of every built clause with no eviction
	// credited. PeakMemWords <= PeakMemBoundWords always holds; the bound is
	// what a memory budget should be compared against when the schedule-
	// dependent peak must not matter. Zero for the sequential checkers,
	// whose PeakMemWords is already schedule-free. The out-of-core checker
	// reports its configured byte budget (Options.MemBudgetBytes) in words
	// here and enforces it as a hard ceiling on its model, so the
	// invariant holds there too.
	PeakMemBoundWords int64
	// CoreClauses lists the original clause IDs involved in the proof, in
	// increasing order (depth-first and hybrid only) — the unsatisfiable
	// core of §4/Table 3.
	CoreClauses []int
	// CoreVars counts the distinct variables occurring in CoreClauses.
	CoreVars int
	// OOCWindows is the number of proof windows the out-of-core checker
	// actually ran (zero for every other checker).
	OOCWindows int
	// SpilledClauses counts learned clauses the out-of-core checker wrote
	// to its disk spill index because a later window references them.
	SpilledClauses int64
	// SpilledBytes is the total size of the spill records written.
	SpilledBytes int64
}

// BuiltFraction returns ClausesBuilt/LearnedTotal, the paper's "Built%".
func (r *Result) BuiltFraction() float64 {
	if r.LearnedTotal == 0 {
		return 0
	}
	return float64(r.ClausesBuilt) / float64(r.LearnedTotal)
}

// buildChain is the build step of the streaming checkers (breadth-first,
// hybrid and parallel): it fetches the clauses of learned clause id's
// resolve sources into *chain, then resolves them with r in one call. The
// first failure is the one the paper's interleaved cl = resolve(cl, src_i)
// loop meets: if getClause refuses the source at step j, the chain before
// it is resolved, and a resolution failure there is reported ahead of the
// bad source reference at j. The resolvent lives in r's storage until its
// next call.
func buildChain[S int | int32](r *resolve.Resolver, chain *[]cnf.Clause, id int, sources []S,
	getClause func(id int) (cnf.Clause, error),
) (cnf.Clause, error) {
	c := (*chain)[:0]
	var refused error
	for _, s := range sources {
		cl, err := getClause(int(s))
		if err != nil {
			refused = err
			break
		}
		c = append(c, cl)
	}
	*chain = c
	if len(c) > 0 {
		lits, step, err := r.Chain(c)
		if err != nil {
			return nil, &CheckError{Kind: FailResolution, ClauseID: id, Step: step,
				Detail: fmt.Sprintf("resolving with source %d", sources[step]), Err: err}
		}
		if refused == nil {
			return lits, nil
		}
	}
	return nil, &CheckError{Kind: FailBadSourceRef, ClauseID: id, Step: len(c), Err: refused}
}

// newResolver sizes a chain resolver for the normalized originals: every
// learned clause's literals come from them, and the last literal of a
// sorted clause holds its widest variable.
func newResolver(originals []cnf.Clause) *resolve.Resolver {
	maxVar := 0
	for _, c := range originals {
		if n := len(c); n > 0 {
			maxVar = max(maxVar, int(c[n-1].Var()))
		}
	}
	return resolve.NewResolver(maxVar)
}

// memModel is the deterministic memory accounting shared by the checkers.
type memModel struct {
	cur, peak int64
	limit     int64
}

func (m *memModel) add(words int64) error {
	m.cur += words
	if m.cur > m.peak {
		m.peak = m.cur
	}
	if m.limit > 0 && m.cur > m.limit {
		return failf(FailMemoryLimit, trace.NoClause, -1,
			"memory model exceeded %d words (at %d)", m.limit, m.cur)
	}
	return nil
}

func (m *memModel) sub(words int64) { m.cur -= words }

// level0Rec is one recorded level-0 assignment.
type level0Rec struct {
	value bool
	set   bool // slot occupied (the table is a flat slice, not a map)
	ante  int
	pos   int // chronological index in the trace
}

// level0Table indexes the trace's level-0 assignments by variable.
// Variables are dense small integers, so a flat slice beats a map here:
// lookups in the final stage's inner loops become a bounds check and the
// per-check table costs one allocation instead of map buckets.
type level0Table struct {
	recs []level0Rec // indexed by variable; set == false means unassigned
	n    int         // number of recorded assignments
}

// newLevel0Table presizes the table for variables 1..numVars, the
// formula's; a record naming a larger variable grows it geometrically.
func newLevel0Table(numVars int) *level0Table {
	return &level0Table{recs: make([]level0Rec, numVars+1)}
}

func (t *level0Table) add(v cnf.Var, value bool, ante int) error {
	if int(v) >= len(t.recs) {
		grown := make([]level0Rec, max(int(v)+1, 2*len(t.recs)))
		copy(grown, t.recs)
		t.recs = grown
	}
	if t.recs[v].set {
		return failf(FailTrace, trace.NoClause, -1, "variable %d assigned at level 0 twice", v)
	}
	t.recs[v] = level0Rec{value: value, set: true, ante: ante, pos: t.n}
	t.n++
	return nil
}

func (t *level0Table) get(v cnf.Var) (level0Rec, bool) {
	if int(v) >= len(t.recs) || !t.recs[v].set {
		return level0Rec{}, false
	}
	return t.recs[v], true
}

// litFalse reports whether literal l is falsified by the recorded level-0
// assignment; ok is false when l's variable is unassigned at level 0.
func (t *level0Table) litFalse(l cnf.Lit) (falsified, ok bool) {
	rec, ok := t.get(l.Var())
	if !ok {
		return false, false
	}
	return rec.value == l.IsNeg(), true
}

// finalStage derives the empty clause from the (already built) final
// conflicting clause, following the proof of Proposition 3: repeatedly pick
// the literal assigned last (reverse chronological order) and resolve with
// its recorded antecedent. getClause materializes antecedent clauses;
// onStep is invoked per resolution for statistics.
//
// Every step is validated: the working clause must stay falsified by the
// level-0 assignment, and each claimed antecedent must genuinely be the
// antecedent of its variable (its literal of the pivot variable is the one
// assigned true; every other literal is falsified strictly earlier).
func finalStage(cl cnf.Clause, confID int, l0 *level0Table,
	getClause func(id int) (cnf.Clause, error), onStep func()) error {

	// The final conflicting clause must have all literals false at level 0.
	for _, l := range cl {
		f, ok := l0.litFalse(l)
		if !ok {
			return failf(FailNotConflicting, confID, -1,
				"literal %s of final conflicting clause is unassigned at level 0", l)
		}
		if !f {
			return failf(FailNotConflicting, confID, -1,
				"literal %s of final conflicting clause is true at level 0", l)
		}
	}

	// Ping-pong scratch for the level-0 resolution chain, same discipline as
	// the depth-first build loop: dst never aliases cl (the other buffer or
	// the caller's clause) nor ante (stored clause storage).
	var buf [2]cnf.Clause
	step := 0
	for len(cl) > 0 {
		// choose_literal: reverse chronological order.
		best := -1
		bestPos := -1
		for i, l := range cl {
			rec, _ := l0.get(l.Var()) // present: invariant established below
			if rec.pos > bestPos {
				bestPos = rec.pos
				best = i
			}
		}
		pivotLit := cl[best]
		v := pivotLit.Var()
		rec, _ := l0.get(v)

		ante, err := getClause(rec.ante)
		if err != nil {
			var ce *CheckError
			if errors.As(err, &ce) {
				return err // already a structured diagnostic (e.g. memory limit)
			}
			return &CheckError{Kind: FailBadSourceRef, ClauseID: rec.ante, Step: step,
				Detail: fmt.Sprintf("antecedent of variable %d", v), Err: err}
		}
		if err := validateAntecedent(ante, rec.ante, v, rec, l0); err != nil {
			return err
		}
		next, pivot, err := resolve.ResolventInto(buf[step%2], cl, ante)
		if err == nil && pivot != v {
			err = fmt.Errorf("resolve: expected pivot %d, clauses clash on %d", v, pivot)
		}
		if err != nil {
			return &CheckError{Kind: FailResolution, ClauseID: rec.ante, Step: step,
				Detail: fmt.Sprintf("final-stage resolution on variable %d", v), Err: err}
		}
		buf[step%2] = next
		// Invariant: every literal of `next` is falsified at level 0 with
		// position < bestPos. cl's other literals were checked already;
		// ante's literals were checked by validateAntecedent.
		cl = next
		step++
		if onStep != nil {
			onStep()
		}
	}
	return nil
}

// validateAntecedent checks that ante (with ID anteID) is a valid antecedent
// of variable v under the level-0 assignment: it contains v's true literal,
// and every other literal is falsified by an assignment made strictly before
// v's ("whether it is a unit clause and whether the unit literal corresponds
// to the variable", §3.2).
func validateAntecedent(ante cnf.Clause, anteID int, v cnf.Var, rec level0Rec, l0 *level0Table) error {
	trueLit := cnf.NewLit(v, !rec.value)
	foundUnit := false
	for _, l := range ante {
		if l == trueLit {
			foundUnit = true
			continue
		}
		if l.Var() == v {
			return failf(FailBadAntecedent, anteID, -1,
				"antecedent of variable %d contains its false literal %s", v, l)
		}
		otherRec, ok := l0.get(l.Var())
		if !ok {
			return failf(FailBadAntecedent, anteID, -1,
				"antecedent of variable %d has unassigned literal %s", v, l)
		}
		if otherRec.value != l.IsNeg() {
			return failf(FailBadAntecedent, anteID, -1,
				"antecedent of variable %d has true literal %s", v, l)
		}
		if otherRec.pos >= rec.pos {
			return failf(FailBadAntecedent, anteID, -1,
				"antecedent of variable %d has literal %s assigned later (pos %d >= %d)",
				v, l, otherRec.pos, rec.pos)
		}
	}
	if !foundUnit {
		return failf(FailBadAntecedent, anteID, -1,
			"antecedent of variable %d does not contain its implied literal %s", v, trueLit)
	}
	return nil
}

// normalizeOriginals returns the canonical (sorted, deduplicated) form of
// every original clause; index == clause ID.
func normalizeOriginals(f *cnf.Formula) []cnf.Clause {
	out := make([]cnf.Clause, len(f.Clauses))
	// Already-canonical clauses are shared as-is — the checkers only read
	// originals, so the formula's own storage serves and costs nothing. The
	// rest are copied into one batch-allocated backing array and normalized
	// there: two allocations per check instead of one per clause, which
	// used to dominate per-check setup cost on large formulas.
	extra := 0
	for i, c := range f.Clauses {
		if c.IsSorted() {
			out[i] = c
		} else {
			extra += len(c)
		}
	}
	if extra == 0 {
		return out
	}
	buf := make(cnf.Clause, 0, extra)
	for i, c := range f.Clauses {
		if out[i] != nil || c == nil {
			continue
		}
		start := len(buf)
		buf = append(buf, c...)
		nc, _ := buf[start:len(buf):len(buf)].Normalize()
		out[i] = nc
	}
	return out
}
