// Package tracecheck converts satcheck resolution traces into the
// TraceCheck format — the clause-level trace format that grew out of
// zchaff-style checkers and became the lingua franca of early proof
// checking (a precursor of today's DRUP/DRAT) — and independently verifies
// files in that format.
//
// A TraceCheck file is a sequence of lines
//
//	<idx> <lit>* 0 <antecedent-idx>* 0
//
// where a clause with no antecedents is an original clause and a clause
// with antecedents must be derivable by resolving the antecedent clauses in
// the given order (a "trivial resolution" chain). A derivation is a proof
// of unsatisfiability when it contains the empty clause.
//
// Unlike the native satcheck trace (§3.1 of the paper), TraceCheck lines
// carry the *literals* of every derived clause, so the format is larger but
// self-contained: a TraceCheck file can be validated without re-deriving
// clause contents. Derive materializes the literals by running the same
// chain resolutions the checker performs — so a successful Derive is itself
// a full validation pass — compiles the final level-0 stage into one last
// chain deriving the empty clause, and orders each chain as kernel hints.
package tracecheck

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/trace"
)

// Clause is one TraceCheck line.
type Clause struct {
	// ID is the 1-based clause index.
	ID int
	// Lits is the clause content in canonical order.
	Lits cnf.Clause
	// Antecedents is the resolution chain deriving the clause (empty for
	// original clauses and for Derive's restatement of an empty one).
	Antecedents []int
	// Hints lists the antecedents in the order a hint-following (LRAT)
	// checker replays them. Set by Derive only.
	Hints []int
}

// ExportStats summarizes an Export.
type ExportStats struct {
	Originals   int
	Derived     int   // learned clauses plus the final empty-clause chain
	Resolutions int64 // validated resolution steps
	Bytes       int64
}

// Export writes the normalized formula plus Derive's clauses in TraceCheck
// format; the output always ends with the empty clause. Learned clause
// contents are materialized in memory, so this is offline tooling rather
// than a bounded-memory checker (use the checker package for that).
func Export(f *cnf.Formula, src trace.Source, w io.Writer) (*ExportStats, error) {
	derived, err := Derive(f, src)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countWriter{w: bw}
	stats := &ExportStats{Originals: len(f.Clauses)}
	for i, c := range f.Clauses {
		nc, _ := c.Clone().Normalize()
		if err := writeLine(cw, i+1, nc, nil); err != nil {
			return nil, err
		}
	}
	for _, c := range derived {
		if len(c.Antecedents) == 0 {
			continue // restates the formula's empty clause, written above
		}
		stats.Derived++
		stats.Resolutions += int64(len(c.Antecedents) - 1)
		if err := writeLine(cw, c.ID, c.Lits, c.Antecedents); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	stats.Bytes = cw.n
	return stats, nil
}

// Derive validates a native trace's resolution chains against f and returns
// the clauses they derive, numbered as in TraceCheck (formula clause i has
// ID i+1): the learned clauses in trace order, then, unless the final
// conflicting clause is an empty learned clause, one deriving the empty
// clause: the chain resolving the final conflicting clause against the
// level-0 antecedents in reverse chronological order, or, when the formula
// itself holds the empty final clause, a restatement with no Antecedents.
func Derive(f *cnf.Formula, src trace.Source) ([]Clause, error) {
	data, err := trace.Load(src)
	if err != nil {
		return nil, err
	}
	nOrig := len(f.Clauses)
	if data.FirstLearned != -1 && data.FirstLearned != nOrig {
		return nil, fmt.Errorf("tracecheck: trace starts learned IDs at %d but formula has %d clauses",
			data.FirstLearned, nOrig)
	}

	originals := make([]cnf.Clause, nOrig)
	maxVar := f.NumVars
	for i, c := range f.Clauses {
		nc, _ := c.Clone().Normalize()
		originals[i] = nc
		for _, l := range nc {
			maxVar = max(maxVar, int(l.Var()))
		}
	}

	learned := make([]cnf.Clause, data.NumLearned())
	getClause := func(id int) (cnf.Clause, error) {
		switch {
		case id < 0 || id >= nOrig+len(learned):
			return nil, fmt.Errorf("tracecheck: clause %d out of range", id)
		case id < nOrig:
			return originals[id], nil
		default:
			cl := learned[id-nOrig]
			if cl == nil {
				return nil, fmt.Errorf("tracecheck: clause %d used before derivation", id)
			}
			return cl, nil
		}
	}

	h := &hinter{isTrue: make([]bool, 2*maxVar+2)}
	out := make([]Clause, 0, len(learned)+1)
	var chain []cnf.Clause
	for i, srcs := range data.LearnedSources {
		id := nOrig + i
		chain = chain[:0]
		for _, sid := range srcs {
			cl, err := getClause(sid)
			if err != nil {
				return nil, err
			}
			chain = append(chain, cl)
		}
		lits, err := resolve.Chain(chain[0], chain[1:])
		if err != nil {
			return nil, fmt.Errorf("tracecheck: deriving clause %d: %w", id, err)
		}
		learned[i] = lits
		out = append(out, h.derived(id+1, lits, srcs, chain))
		data.LearnedSources[i] = nil // copied into Antecedents; free it early
	}

	srcs, chain, err := FinalChain(data, getClause)
	if err != nil {
		return nil, err
	}
	switch id := nOrig + len(learned) + 1; {
	case len(srcs) > 1:
		out = append(out, h.derived(id, cnf.Clause{}, srcs, chain))
	case data.FinalConflict < nOrig:
		// The formula's own empty clause: restate it, since a kernel proof
		// must add the empty clause.
		out = append(out, Clause{ID: id, Lits: cnf.Clause{}, Hints: []int{data.FinalConflict + 1}})
	}
	return out, nil
}

// FinalChain replays a trace's final stage and returns its resolution chain
// [final conflicting clause, antecedents...] as 0-based IDs and clauses:
// the final conflicting clause resolved against the level-0 antecedents in
// reverse chronological order. Each antecedent must hold the pivot's true
// literal, with every other literal false and assigned strictly earlier —
// the native checkers' antecedent rule, which also bounds the chain by the
// number of level-0 assignments.
func FinalChain(data *trace.Data, getClause func(int) (cnf.Clause, error)) ([]int, []cnf.Clause, error) {
	type rec struct {
		ante, pos int
		value     bool
	}
	recs := make(map[cnf.Var]rec, len(data.Level0))
	for i, r := range data.Level0 {
		recs[r.Var] = rec{ante: r.Ante, pos: i, value: r.Value}
	}
	cl, err := getClause(data.FinalConflict)
	if err != nil {
		return nil, nil, err
	}
	ids := []int{data.FinalConflict}
	chain := []cnf.Clause{cl}
	for len(cl) > 0 {
		best := -1
		bestPos := -1
		for i, l := range cl {
			r, ok := recs[l.Var()]
			if !ok {
				return nil, nil, fmt.Errorf("tracecheck: final-stage literal %s unassigned at level 0", l)
			}
			if r.pos > bestPos {
				bestPos = r.pos
				best = i
			}
		}
		v := cl[best].Var()
		r := recs[v]
		ante, err := getClause(r.ante)
		if err != nil {
			return nil, nil, err
		}
		trueLit := cnf.NewLit(v, !r.value)
		if !ante.Contains(trueLit) {
			return nil, nil, fmt.Errorf("tracecheck: final stage: antecedent %d of variable %d lacks its implied literal %s", r.ante, v, trueLit)
		}
		for _, l := range ante {
			if l == trueLit {
				continue
			}
			if o, ok := recs[l.Var()]; !ok || o.value != l.IsNeg() || o.pos >= r.pos {
				return nil, nil, fmt.Errorf("tracecheck: final stage: antecedent %d of variable %d has literal %s not falsified before it", r.ante, v, l)
			}
		}
		next, rerr := resolve.ResolventOn(cl, ante, v)
		if rerr != nil {
			return nil, nil, fmt.Errorf("tracecheck: final stage on variable %d: %w", v, rerr)
		}
		ids = append(ids, r.ante)
		chain = append(chain, ante)
		cl = next
	}
	return ids, chain, nil
}

// hinter orders chain antecedents as kernel hints. isTrue marks the
// literals assumed or implied so far (all false between calls).
type hinter struct {
	isTrue  []bool
	trail   []cnf.Lit
	pending []int
}

// derived returns clause id (1-based) with content lits, derived by chain
// (0-based IDs srcs). Hints walk the chain in reverse under ¬lits, emitting
// each antecedent unit under the literals implied so far and, last, the
// first falsified one; satisfied ones are dropped, ones with two open
// literals wait for another sweep. Distinct pivots give the reversed chain
// in one sweep; a repeated pivot still ends in a conflict, as a linear
// chain is an input resolution and input and unit refutation are equivalent.
func (h *hinter) derived(id int, lits cnf.Clause, srcs []int, chain []cnf.Clause) Clause {
	n := len(srcs)
	c := Clause{ID: id, Lits: lits, Antecedents: make([]int, n), Hints: make([]int, 0, n)}
	for j, sid := range srcs {
		c.Antecedents[j] = sid + 1
	}
	for _, l := range lits {
		h.assume(l.Neg())
	}
	h.pending = h.pending[:0]
	for j := n - 1; j >= 0; j-- {
		h.pending = append(h.pending, j)
	}
sweep:
	for progress := true; progress; {
		progress = false
		keep := h.pending[:0]
		for _, j := range h.pending {
			switch unit, open := h.eval(chain[j]); open {
			case 0:
				c.Hints = append(c.Hints, c.Antecedents[j])
				break sweep
			case 1:
				c.Hints = append(c.Hints, c.Antecedents[j])
				h.assume(unit)
				progress = true
			case 2:
				keep = append(keep, j)
			}
		}
		h.pending = keep
	}
	for _, l := range h.trail {
		h.isTrue[l] = false
	}
	h.trail = h.trail[:0]
	return c
}

// eval returns -1 if cl is satisfied, else its number of open literals up
// to two, and the open literal when there is exactly one.
func (h *hinter) eval(cl cnf.Clause) (unit cnf.Lit, open int) {
	for _, l := range cl {
		switch {
		case h.isTrue[l]:
			return 0, -1
		case !h.isTrue[l.Neg()]:
			if unit, open = l, open+1; open == 2 {
				return 0, 2
			}
		}
	}
	return unit, open
}

func (h *hinter) assume(l cnf.Lit) {
	h.isTrue[l] = true
	h.trail = append(h.trail, l)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeLine(w io.Writer, id int, lits cnf.Clause, antecedents []int) error {
	var b strings.Builder
	b.WriteString(strconv.Itoa(id))
	for _, l := range lits {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(l.Dimacs()))
	}
	b.WriteString(" 0")
	for _, a := range antecedents {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(a))
	}
	b.WriteString(" 0\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Parse reads a TraceCheck file.
func Parse(r io.Reader) ([]Clause, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<30)
	var out []Clause
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		vals := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("tracecheck: line %d: bad token %q", lineNo, f)
			}
			vals[i] = v
		}
		if len(vals) < 3 {
			return nil, fmt.Errorf("tracecheck: line %d: too short", lineNo)
		}
		if vals[0] <= 0 {
			return nil, fmt.Errorf("tracecheck: line %d: clause index must be positive", lineNo)
		}
		c := Clause{ID: vals[0]}
		i := 1
		for ; i < len(vals) && vals[i] != 0; i++ {
			c.Lits = append(c.Lits, cnf.LitFromDimacs(vals[i]))
		}
		if i >= len(vals) {
			return nil, fmt.Errorf("tracecheck: line %d: missing literal terminator", lineNo)
		}
		i++ // skip the 0
		for ; i < len(vals) && vals[i] != 0; i++ {
			if vals[i] <= 0 {
				return nil, fmt.Errorf("tracecheck: line %d: antecedent index must be positive", lineNo)
			}
			c.Antecedents = append(c.Antecedents, vals[i])
		}
		if i != len(vals)-1 || vals[i] != 0 {
			return nil, fmt.Errorf("tracecheck: line %d: malformed terminators", lineNo)
		}
		c.Lits, _ = c.Lits.Normalize()
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyStats summarizes a Verify.
type VerifyStats struct {
	Originals   int
	Derived     int
	Resolutions int64
}

// Verify independently validates a parsed TraceCheck derivation:
// every derived clause's chain must resolve to exactly its declared
// literals, antecedents must be declared earlier, and the empty clause must
// appear. When f is non-nil, clauses without antecedents must additionally
// match f's clauses: clause index i (1-based) must equal formula clause
// i-1 — the exporter's convention — so the proof is grounded in the formula
// being refuted rather than in arbitrary axioms.
func Verify(f *cnf.Formula, clauses []Clause) (*VerifyStats, error) {
	byID := make(map[int]cnf.Clause, len(clauses))
	stats := &VerifyStats{}
	sawEmpty := false
	for _, c := range clauses {
		if _, dup := byID[c.ID]; dup {
			return nil, fmt.Errorf("tracecheck: clause index %d declared twice", c.ID)
		}
		if len(c.Antecedents) == 0 {
			if f != nil {
				if c.ID > len(f.Clauses) {
					return nil, fmt.Errorf("tracecheck: original clause %d beyond formula (%d clauses)", c.ID, len(f.Clauses))
				}
				want, _ := f.Clauses[c.ID-1].Clone().Normalize()
				if !sameClause(c.Lits, want) {
					return nil, fmt.Errorf("tracecheck: original clause %d is %s, formula has %s", c.ID, c.Lits, want)
				}
			}
			byID[c.ID] = c.Lits
			stats.Originals++
		} else {
			chainCls := make([]cnf.Clause, 0, len(c.Antecedents))
			for _, a := range c.Antecedents {
				cl, ok := byID[a]
				if !ok {
					return nil, fmt.Errorf("tracecheck: clause %d uses undeclared antecedent %d", c.ID, a)
				}
				chainCls = append(chainCls, cl)
			}
			out, err := resolve.Chain(chainCls[0], chainCls[1:])
			if err != nil {
				return nil, fmt.Errorf("tracecheck: clause %d: %w", c.ID, err)
			}
			stats.Resolutions += int64(len(chainCls) - 1)
			if !sameClause(out, c.Lits) {
				return nil, fmt.Errorf("tracecheck: clause %d declares %s but its chain derives %s", c.ID, c.Lits, out)
			}
			byID[c.ID] = c.Lits
			stats.Derived++
		}
		if len(c.Lits) == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty {
		return nil, fmt.Errorf("tracecheck: no empty clause; the file is not a refutation")
	}
	return stats, nil
}

func sameClause(a, b cnf.Clause) bool {
	if len(a) != len(b) {
		return false
	}
	// Both canonical: compare positionally.
	sa := append(cnf.Clause(nil), a...)
	sb := append(cnf.Clause(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
