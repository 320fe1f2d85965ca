// Package tracecheck converts satcheck resolution traces into the
// TraceCheck format — the clause-level trace format that grew out of
// zchaff-style checkers and became the lingua franca of early proof
// checking (a precursor of today's DRUP/DRAT) — and turns both native
// traces and TraceCheck files into hinted clauses for the trusted kernel.
//
// A TraceCheck file is a sequence of lines
//
//	<idx> <lit>* 0 <antecedent-idx>* 0
//
// where a clause with no antecedents is an original clause and a clause
// with antecedents is derived from the antecedent clauses (a "trivial
// resolution" chain). A derivation is a proof of unsatisfiability when it
// contains the empty clause.
//
// Unlike the native satcheck trace (§3.1 of the paper), TraceCheck lines
// carry the *literals* of every derived clause, so the format is larger but
// self-contained. Derive materializes a native trace's literals by running
// its chain resolutions with resolve.Resolver, the chain resolver the
// native checkers share, compiles the final level-0 stage into one last
// chain deriving the empty clause, orders each chain as kernel hints, and
// hands each clause to a visitor as it goes. Replay does the same for a
// TraceCheck file, whose literals are given. Neither says "valid": that is
// the kernel's verdict on the hinted clauses (internal/kernelcheck), which
// re-verifies every clause the resolver builds.
package tracecheck

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
	// original clauses and for the restatement of an empty one).
	Antecedents []int
	// Hints lists the antecedents in the order a hint-following (LRAT)
	// checker replays them. Set by Derive and Replay.
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

// Replay reads a TraceCheck file from r and calls visit, under Derive's
// contract, with each derived line, its antecedents ordered as kernel
// hints by Derive's hinter. It checks the file's structure against f; the
// kernel checks that each chain implies its clause:
//   - a line without antecedents must equal formula clause ID, normalized;
//   - every antecedent must be declared on an earlier line;
//   - IDs must strictly increase from line to line;
//   - derived literals must use only the formula's variables.
//
// When the file declares the formula's own empty clause and derives none,
// the last clause visited restates it, with that original as its hint, as
// Derive does.
func Replay(f *cnf.Formula, r io.Reader, visit func(Clause) error) error {
	lines, err := Parse(r)
	if err != nil {
		return err
	}
	nOrig, maxVar := len(f.Clauses), f.NumVars
	for _, c := range f.Clauses {
		maxVar = max(maxVar, int(c.MaxVar()))
	}
	h := hinter{isTrue: make([]bool, 2*maxVar+2)}
	var (
		ids          []int        // the IDs declared so far, increasing
		declared     []cnf.Clause // their literals
		chain        []cnf.Clause
		hints        []int
		last, orig0  int  // the last ID; the first original empty clause
		derivedEmpty bool // a derived line is the empty clause
	)
	for _, c := range lines {
		if c.ID <= last {
			return fmt.Errorf("tracecheck: clause %d follows clause %d; IDs must increase", c.ID, last)
		}
		last = c.ID
		if len(c.Antecedents) == 0 {
			if c.ID > nOrig {
				return fmt.Errorf("tracecheck: original clause %d beyond formula (%d clauses)", c.ID, nOrig)
			}
			want, _ := f.Clauses[c.ID-1].Clone().Normalize()
			if !slices.Equal(c.Lits, want) {
				return fmt.Errorf("tracecheck: original clause %d is %s, formula has %s", c.ID, c.Lits, want)
			}
			if len(want) == 0 && orig0 == 0 {
				orig0 = c.ID
			}
		} else {
			chain = chain[:0]
			for _, a := range c.Antecedents {
				i, ok := slices.BinarySearch(ids, a)
				if !ok {
					return fmt.Errorf("tracecheck: clause %d uses undeclared antecedent %d", c.ID, a)
				}
				chain = append(chain, declared[i])
			}
			for _, l := range c.Lits {
				if int(l.Var()) > maxVar {
					return fmt.Errorf("tracecheck: clause %d: literal %s beyond the formula's %d variables", c.ID, l, maxVar)
				}
			}
			derivedEmpty = derivedEmpty || len(c.Lits) == 0
			hints = h.order(hints[:0], c.Lits, c.Antecedents, chain)
			if err := visit(Clause{ID: c.ID, Lits: c.Lits, Antecedents: c.Antecedents, Hints: hints}); err != nil {
				return err
			}
		}
		ids, declared = append(ids, c.ID), append(declared, c.Lits)
	}
	if orig0 > 0 && !derivedEmpty {
		return visit(Clause{ID: max(last, nOrig) + 1, Lits: cnf.Clause{}, Hints: []int{orig0}})
	}
	return nil
}

// deriver is Derive's state: every clause so far, original and learned, in
// one literal arena, and the resolver and scratch that build and hint each
// resolvent.
type deriver struct {
	lits cnf.Clause // clause id (0-based) is lits[off[id]:off[id+1]], canonical
	off  []int

	r           *resolve.Resolver
	chain       []cnf.Clause // the current chain's clauses
	ante, hints []int
	h           hinter
}

// newDeriver loads f's clauses, normalized, into a fresh arena.
func newDeriver(f *cnf.Formula, nLearned int) *deriver {
	d := &deriver{off: make([]int, 1, len(f.Clauses)+nLearned+1)}
	maxVar := f.NumVars
	for _, c := range f.Clauses {
		start := len(d.lits)
		d.lits = append(d.lits, c...)
		nc, _ := d.lits[start:].Normalize()
		d.lits = d.lits[:start+len(nc)]
		d.off = append(d.off, len(d.lits))
		for _, l := range nc {
			maxVar = max(maxVar, int(l.Var()))
		}
	}
	d.r = resolve.NewResolver(maxVar)
	d.h.isTrue = make([]bool, 2*maxVar+2)
	return d
}

// clause returns clause id's literals; the view cannot grow into the arena.
func (d *deriver) clause(id int) cnf.Clause {
	return d.lits[d.off[id]:d.off[id+1]:d.off[id+1]]
}

// resolve derives the clause that the chain srcs (0-based IDs) resolves
// to with the shared resolve.Resolver, appends it to the arena and returns
// it, leaving the chain's clauses in d.chain. Its clause or error is
// resolve.Chain's: each step costs O(|source|) where the resolver's marks
// apply, and is the sorted merge where they could disagree.
func (d *deriver) resolve(srcs []int) (cnf.Clause, error) {
	d.chain = d.chain[:0]
	for _, s := range srcs {
		d.chain = append(d.chain, d.clause(s))
	}
	lits, step, err := d.r.Chain(d.chain)
	if err != nil {
		return nil, fmt.Errorf("step %d of %d: %w", step, len(srcs)-1, err)
	}
	d.lits = append(d.lits, lits...)
	d.off = append(d.off, len(d.lits))
	return d.clause(len(d.off) - 2), nil
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

// maxVar caps literals' variables, as internal/drat and the LRAT scanner
// do, so none is truncated on its way to a cnf.Lit.
const maxVar = 1 << 28

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
			if vals[i] > maxVar || vals[i] < -maxVar {
				return nil, fmt.Errorf("tracecheck: line %d: literal %d exceeds variable %d", lineNo, vals[i], maxVar)
			}
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
