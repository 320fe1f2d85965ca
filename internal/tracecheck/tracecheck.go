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
// chain deriving the empty clause, orders each chain as kernel hints, and
// hands each clause to a visitor as it goes.
package tracecheck

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
// format; the output always ends with the empty clause. The text is built
// in memory and written only once the whole trace has been derived, so
// this is offline tooling rather than a bounded-memory checker (use the
// checker package for that).
func Export(f *cnf.Formula, src trace.Source, w io.Writer) (*ExportStats, error) {
	stats := &ExportStats{Originals: len(f.Clauses)}
	var text []byte
	for i, c := range f.Clauses {
		nc, _ := c.Clone().Normalize()
		text = appendLine(text, i+1, nc, nil)
	}
	err := Derive(f, src, func(c Clause) error {
		if len(c.Antecedents) == 0 {
			return nil // restates the formula's empty clause, written above
		}
		stats.Derived++
		stats.Resolutions += int64(len(c.Antecedents) - 1)
		text = appendLine(text, c.ID, c.Lits, c.Antecedents)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n, err := w.Write(text)
	if err != nil {
		return nil, err
	}
	stats.Bytes = int64(n)
	return stats, nil
}

// Derive validates a native trace's resolution chains against f and calls
// visit with each clause they derive, numbered as in TraceCheck (formula
// clause i has ID i+1): the learned clauses in trace order, then, unless
// the final conflicting clause is an empty learned clause, one deriving
// the empty clause: the chain resolving the final conflicting clause
// against the level-0 antecedents in reverse chronological order, or, when
// the formula itself holds the empty final clause, a restatement with no
// Antecedents.
//
// The visited Clause's slices are views into Derive's own buffers, valid
// only during the call: a visitor that keeps a clause must copy it. An
// error from visit stops the derivation and is returned as is. A trace
// that fails validation may already have had some clauses visited.
func Derive(f *cnf.Formula, src trace.Source, visit func(Clause) error) error {
	data, err := trace.Load(src)
	if err != nil {
		return err
	}
	nOrig := len(f.Clauses)
	if data.FirstLearned != -1 && data.FirstLearned != nOrig {
		return fmt.Errorf("tracecheck: trace starts learned IDs at %d but formula has %d clauses",
			data.FirstLearned, nOrig)
	}

	d := newDeriver(f, data.NumLearned())
	for i, srcs := range data.LearnedSources {
		// trace.Load guarantees 0 <= source < ID, so every source is a
		// formula clause or an earlier learned one, derived by now.
		id := nOrig + i
		lits, err := d.resolve(srcs)
		if err != nil {
			return fmt.Errorf("tracecheck: deriving clause %d: %w", id, err)
		}
		if err := visit(d.hinted(id+1, lits, srcs, d.chain)); err != nil {
			return err
		}
		data.LearnedSources[i] = nil // no longer needed; free it early
	}

	srcs, chain, err := FinalChain(data, func(id int) (cnf.Clause, error) {
		if id < 0 || id >= len(d.off)-1 {
			return nil, fmt.Errorf("tracecheck: clause %d out of range", id)
		}
		return d.clause(id), nil
	})
	if err != nil {
		return err
	}
	switch id := nOrig + data.NumLearned() + 1; {
	case len(srcs) > 1:
		return visit(d.hinted(id, cnf.Clause{}, srcs, chain))
	case data.FinalConflict < nOrig:
		// The formula's own empty clause: restate it, since a kernel proof
		// must add the empty clause.
		return visit(Clause{ID: id, Lits: cnf.Clause{}, Hints: []int{data.FinalConflict + 1}})
	}
	return nil
}

// deriver is Derive's state: every clause so far, original and learned, in
// one literal arena, and the scratch that builds and hints each resolvent.
type deriver struct {
	lits cnf.Clause // clause id (0-based) is lits[off[id]:off[id+1]], canonical
	off  []int
	taut []bool // clause id holds a complementary pair

	mark  []uint32 // mark[l] == epoch while l is in the resolvent being built
	epoch uint32
	cur   cnf.Clause // the resolvent's literals, with ones since removed

	chain       []cnf.Clause // the current chain's clauses
	ante, hints []int
	h           hinter
}

// newDeriver loads f's clauses, normalized, into a fresh arena.
func newDeriver(f *cnf.Formula, nLearned int) *deriver {
	n := len(f.Clauses) + nLearned
	d := &deriver{off: make([]int, 1, n+1), taut: make([]bool, 0, n)}
	maxVar := f.NumVars
	for _, c := range f.Clauses {
		start := len(d.lits)
		d.lits = append(d.lits, c...)
		nc, taut := d.lits[start:].Normalize()
		d.lits = d.lits[:start+len(nc)]
		d.off = append(d.off, len(d.lits))
		d.taut = append(d.taut, taut)
		for _, l := range nc {
			maxVar = max(maxVar, int(l.Var()))
		}
	}
	d.mark = make([]uint32, 2*maxVar+2)
	d.h.isTrue = make([]bool, 2*maxVar+2)
	return d
}

// clause returns clause id's literals; the view cannot grow into the arena.
func (d *deriver) clause(id int) cnf.Clause {
	return d.lits[d.off[id]:d.off[id+1]:d.off[id+1]]
}

// resolve derives the clause that the chain srcs (0-based IDs) resolves
// to, appends it to the arena and returns it, leaving the chain's clauses
// in d.chain. Each step costs O(|source|): the source's literals are
// checked against the marks of the resolvent so far. Marks and the sorted
// merge of resolve.Chain agree on canonical clauses without complementary
// pairs, and disagree on ones with them: the merge of {x, ¬x} and {x} has
// no clash, while marks count one. So a chain through such a clause, or a
// step that does not clash on exactly one variable, is left to
// resolve.Chain, whose clause or error is the answer.
func (d *deriver) resolve(srcs []int) (cnf.Clause, error) {
	d.chain = d.chain[:0]
	taut := false
	for _, s := range srcs {
		d.chain = append(d.chain, d.clause(s))
		taut = taut || d.taut[s]
	}
	var lits cnf.Clause
	if !taut && d.marks() {
		lits = d.cur
	} else {
		var err error
		if lits, err = resolve.Chain(d.chain[0], d.chain[1:]); err != nil {
			return nil, err
		}
		_, taut = lits.Normalize() // already canonical: only the flag is new
	}
	d.lits = append(d.lits, lits...)
	d.off = append(d.off, len(d.lits))
	d.taut = append(d.taut, taut)
	return d.clause(len(d.off) - 2), nil
}

// marks resolves d.chain into d.cur, sorted, and reports whether every
// step clashed on exactly one variable; d.cur is undefined when not.
func (d *deriver) marks() bool {
	if d.epoch++; d.epoch == 0 {
		clear(d.mark)
		d.epoch = 1
	}
	e, mark := d.epoch, d.mark
	cur := append(d.cur[:0], d.chain[0]...)
	for _, l := range cur {
		mark[l] = e
	}
	for _, cl := range d.chain[1:] {
		clashes := 0
		for _, l := range cl {
			switch {
			case mark[l.Neg()] == e:
				mark[l.Neg()] = 0 // the pivot leaves the resolvent
				clashes++
			case mark[l] != e:
				mark[l] = e
				cur = append(cur, l)
			}
		}
		if clashes != 1 {
			d.cur = cur
			return false
		}
	}
	// Keep each marked literal once: a pivot can leave and come back.
	out := cur[:0]
	for _, l := range cur {
		if mark[l] == e {
			mark[l] = 0
			out = append(out, l)
		}
	}
	slices.Sort(out)
	d.cur = out
	return true
}

// hinted returns clause id (1-based) with content lits, derived by chain
// (0-based IDs srcs), its Antecedents and Hints in d's buffers.
func (d *deriver) hinted(id int, lits cnf.Clause, srcs []int, chain []cnf.Clause) Clause {
	d.ante = d.ante[:0]
	for _, s := range srcs {
		d.ante = append(d.ante, s+1)
	}
	d.hints = d.h.order(d.hints[:0], lits, d.ante, chain)
	return Clause{ID: id, Lits: lits, Antecedents: d.ante, Hints: d.hints}
}

// FinalChain replays a trace's final stage and returns its resolution chain
// [final conflicting clause, antecedents...] as 0-based IDs and clauses:
// the final conflicting clause resolved against the level-0 antecedents in
// reverse chronological order. Each antecedent must hold the pivot's true
// literal, with every other literal false and assigned strictly earlier —
// the native checkers' antecedent rule, which also bounds the chain by the
// number of level-0 assignments. A variable may be assigned at level 0
// only once, as in the native checkers.
func FinalChain(data *trace.Data, getClause func(int) (cnf.Clause, error)) ([]int, []cnf.Clause, error) {
	type rec struct {
		ante, pos int
		value     bool
	}
	recs := make(map[cnf.Var]rec, len(data.Level0))
	for i, r := range data.Level0 {
		if _, dup := recs[r.Var]; dup {
			return nil, nil, fmt.Errorf("tracecheck: variable %d assigned at level 0 twice", r.Var)
		}
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

// order appends to hints the antecedents ante (1-based IDs of the clauses
// chain) of a clause with content lits, in replay order, and returns it.
// Hints walk the chain in reverse under ¬lits, emitting each antecedent
// unit under the literals implied so far and, last, the first falsified
// one; satisfied ones are dropped, ones with two open literals wait for
// another sweep. Distinct pivots give the reversed chain in one sweep; a
// repeated pivot still ends in a conflict, as a linear chain is an input
// resolution and input and unit refutation are equivalent.
func (h *hinter) order(hints []int, lits cnf.Clause, ante []int, chain []cnf.Clause) []int {
	for _, l := range lits {
		h.assume(l.Neg())
	}
	h.pending = h.pending[:0]
	for j := len(ante) - 1; j >= 0; j-- {
		h.pending = append(h.pending, j)
	}
sweep:
	for progress := true; progress; {
		progress = false
		keep := h.pending[:0]
		for _, j := range h.pending {
			switch unit, open := h.eval(chain[j]); open {
			case 0:
				hints = append(hints, ante[j])
				break sweep
			case 1:
				hints = append(hints, ante[j])
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
	return hints
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

// appendLine appends one TraceCheck line to b.
func appendLine(b []byte, id int, lits cnf.Clause, antecedents []int) []byte {
	b = strconv.AppendInt(b, int64(id), 10)
	for _, l := range lits {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(l.Dimacs()), 10)
	}
	b = append(b, " 0"...)
	for _, a := range antecedents {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return append(b, " 0\n"...)
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
