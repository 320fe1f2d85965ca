// Package interp computes Craig interpolants from resolution traces — the
// application of checkable resolution proofs that, published the same year
// as the paper (McMillan, CAV 2003), made proof-logging SAT solvers a model
// checker's engine: given a partition of an unsatisfiable CNF into clause
// sets A and B, an interpolant I satisfies
//
//	A ⊨ I,   I ∧ B is unsatisfiable,   vars(I) ⊆ vars(A) ∩ vars(B).
//
// I over-approximates A's models in B's vocabulary; in unbounded model
// checking it serves as an image over-approximation.
//
// The construction is McMillan's, one partial interpolant per proof node:
//
//   - an A-clause's partial interpolant is the disjunction of its literals
//     over variables that also occur in B (false if none);
//   - a B-clause's partial interpolant is the constant true;
//   - a resolution on a variable not occurring in B combines the parents'
//     interpolants with OR, on a variable occurring in B with AND;
//   - the interpolant of the derivation is the empty clause's partial
//     interpolant.
//
// Partial interpolants are built as a gate-level circuit (internal/circuit),
// so the result can be simulated, Tseitin-encoded, miter-compared, or fed
// back into the solver; VerifyAgainst does exactly that to machine-check the
// three interpolant properties.
package interp

import (
	"fmt"

	"satcheck/internal/circuit"
	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// Interpolant is the result of Compute.
type Interpolant struct {
	// Circuit holds the interpolant as combinational logic; Output is its
	// root. Inputs (in declaration order) correspond to Vars.
	Circuit *circuit.Circuit
	Output  circuit.Signal
	// Vars maps circuit input i to its formula variable. Every entry occurs
	// in both A and B (the Craig vocabulary condition, by construction).
	Vars []cnf.Var
	// Gates counts the interpolant circuit's nodes, a size measure.
	Gates int
}

// node pairs a derived clause with its partial interpolant.
type node struct {
	cl  cnf.Clause
	itp circuit.Signal
}

// Compute derives the interpolant of the (A,B) partition from the trace.
// inA[i] reports whether original clause i belongs to A; all other clauses
// belong to B. The trace must be a valid refutation of f (validate it with
// the checker first; Compute replays the same resolutions and fails on any
// invalid step, but produces no diagnostics beyond the first error).
func Compute(f *cnf.Formula, src trace.Source, inA []bool) (*Interpolant, error) {
	if len(inA) != len(f.Clauses) {
		return nil, fmt.Errorf("interp: partition has %d entries for %d clauses", len(inA), len(f.Clauses))
	}
	data, err := trace.Load(src)
	if err != nil {
		return nil, err
	}
	nOrig := len(f.Clauses)
	if data.FirstLearned != -1 && data.FirstLearned != nOrig {
		return nil, fmt.Errorf("interp: trace starts learned IDs at %d but formula has %d clauses",
			data.FirstLearned, nOrig)
	}

	// Vocabulary: which variables occur in B?
	varInB := make([]bool, f.NumVars+1)
	for i, c := range f.Clauses {
		if inA[i] {
			continue
		}
		for _, l := range c {
			varInB[l.Var()] = true
		}
	}

	b := &builder{
		f:       f,
		inA:     inA,
		varInB:  varInB,
		c:       circuit.New(),
		inputOf: make(map[cnf.Var]circuit.Signal),
	}
	b.constFalse = b.c.Const(false)
	b.constTrue = b.c.Const(true)

	// Original clauses are translated lazily; learned clauses fold their
	// source chains.
	learned := make([]node, data.NumLearned())
	get := func(id int) (node, error) {
		switch {
		case id < 0 || id >= nOrig+len(learned):
			return node{}, fmt.Errorf("interp: clause %d out of range", id)
		case id < nOrig:
			return b.leaf(id), nil
		default:
			n := learned[id-nOrig]
			if n.cl == nil {
				return node{}, fmt.Errorf("interp: clause %d used before derivation", id)
			}
			return n, nil
		}
	}
	for i, srcs := range data.LearnedSources {
		cur, err := get(srcs[0])
		if err != nil {
			return nil, err
		}
		for _, sid := range srcs[1:] {
			next, err := get(sid)
			if err != nil {
				return nil, err
			}
			cur, err = b.resolveNodes(cur, next)
			if err != nil {
				return nil, fmt.Errorf("interp: deriving clause %d: %w", nOrig+i, err)
			}
		}
		if cur.cl == nil {
			cur.cl = cnf.Clause{}
		}
		learned[i] = cur
	}

	// Final stage: fold the chain tracecheck.FinalChain validates. Its
	// clause lookup reads contents only, so no interpolant gate is built
	// twice.
	ids, _, err := tracecheck.FinalChain(data, func(id int) (cnf.Clause, error) {
		if id >= 0 && id < nOrig {
			lits, _ := f.Clauses[id].Clone().Normalize()
			return lits, nil
		}
		n, err := get(id)
		return n.cl, err
	})
	if err != nil {
		return nil, err
	}
	cur, err := get(ids[0])
	if err != nil {
		return nil, err
	}
	for _, id := range ids[1:] {
		ante, err := get(id)
		if err != nil {
			return nil, err
		}
		if cur, err = b.resolveNodes(cur, ante); err != nil {
			return nil, fmt.Errorf("interp: final stage: %w", err)
		}
	}

	b.c.MarkOutput(cur.itp)
	return &Interpolant{
		Circuit: b.c,
		Output:  cur.itp,
		Vars:    b.vars,
		Gates:   b.c.NumSignals(),
	}, nil
}

type builder struct {
	f          *cnf.Formula
	inA        []bool
	varInB     []bool
	c          *circuit.Circuit
	inputOf    map[cnf.Var]circuit.Signal
	vars       []cnf.Var
	constFalse circuit.Signal
	constTrue  circuit.Signal
}

// input returns the circuit input for formula variable v, creating it on
// first use. Only called for variables occurring in B while translating
// A-clause literals, so every input is in the shared vocabulary.
func (b *builder) input(v cnf.Var) circuit.Signal {
	if s, ok := b.inputOf[v]; ok {
		return s
	}
	s := b.c.Input(fmt.Sprintf("x%d", v))
	b.inputOf[v] = s
	b.vars = append(b.vars, v)
	return s
}

// leaf returns the node for original clause id.
func (b *builder) leaf(id int) node {
	lits, _ := b.f.Clauses[id].Clone().Normalize()
	if !b.inA[id] {
		return node{cl: lits, itp: b.constTrue}
	}
	var shared []circuit.Signal
	for _, l := range lits {
		if !b.varInB[l.Var()] {
			continue
		}
		in := b.input(l.Var())
		if l.IsNeg() {
			in = b.c.Not(in)
		}
		shared = append(shared, in)
	}
	if len(shared) == 0 {
		return node{cl: lits, itp: b.constFalse}
	}
	return node{cl: lits, itp: b.c.Or(shared...)}
}

// resolveNodes resolves two proof nodes, combining partial interpolants by
// McMillan's pivot rule.
func (b *builder) resolveNodes(x, y node) (node, error) {
	out, pivot, err := resolve.Resolvent(x.cl, y.cl)
	if err != nil {
		return node{}, err
	}
	var itp circuit.Signal
	if b.varInB[pivot] {
		itp = b.c.And(x.itp, y.itp)
	} else {
		itp = b.c.Or(x.itp, y.itp)
	}
	return node{cl: out, itp: itp}, nil
}

// VerifyAgainst machine-checks the three interpolant properties with the
// CDCL solver:
//
//  1. A ∧ ¬I is unsatisfiable (so A ⊨ I);
//  2. I ∧ B is unsatisfiable;
//  3. every circuit input is a variable of both A and B (structural).
//
// It returns nil when all three hold.
func (it *Interpolant) VerifyAgainst(f *cnf.Formula, inA []bool, opts solver.Options) error {
	varInA := make([]bool, f.NumVars+1)
	varInB := make([]bool, f.NumVars+1)
	for i, c := range f.Clauses {
		for _, l := range c {
			if inA[i] {
				varInA[l.Var()] = true
			} else {
				varInB[l.Var()] = true
			}
		}
	}
	for _, v := range it.Vars {
		if !varInA[v] || !varInB[v] {
			return fmt.Errorf("interp: interpolant mentions variable %d outside the shared vocabulary", v)
		}
	}

	check := func(side bool, assertOutput bool) error {
		combined := cnf.NewFormula(f.NumVars)
		for i, c := range f.Clauses {
			if inA[i] == side {
				combined.Add(c.Clone())
			}
		}
		enc := circuit.Encode(it.Circuit)
		offset := cnf.Var(combined.NumVars)
		for _, c := range enc.F.Clauses {
			combined.Add(shiftClause(c, offset))
		}
		if mv := int(offset) + enc.F.NumVars; mv > combined.NumVars {
			combined.NumVars = mv
		}
		// Tie each circuit input to its formula variable.
		for i, s := range it.Circuit.Inputs {
			inLit := cnf.PosLit(enc.Vars[s-1] + offset)
			formLit := cnf.PosLit(it.Vars[i])
			combined.Add(cnf.Clause{inLit.Neg(), formLit})
			combined.Add(cnf.Clause{inLit, formLit.Neg()})
		}
		outLit := cnf.PosLit(enc.Vars[it.Output-1] + offset)
		if !assertOutput {
			outLit = outLit.Neg()
		}
		combined.Add(cnf.Clause{outLit})

		s, err := solver.New(combined, opts)
		if err != nil {
			return err
		}
		st, err := s.Solve()
		if err != nil {
			return err
		}
		if st != solver.StatusUnsat {
			which := "I ∧ B"
			if side {
				which = "A ∧ ¬I"
			}
			return fmt.Errorf("interp: %s is %v; not an interpolant", which, st)
		}
		return nil
	}

	if err := check(true, false); err != nil { // A ∧ ¬I
		return err
	}
	return check(false, true) // B ∧ I
}

// shiftClause returns c with every variable shifted up by offset.
func shiftClause(c cnf.Clause, offset cnf.Var) cnf.Clause {
	out := make(cnf.Clause, len(c))
	for i, l := range c {
		out[i] = cnf.NewLit(l.Var()+offset, l.IsNeg())
	}
	return out
}

// SplitFirstK is a convenience partition: the first k clauses form A.
func SplitFirstK(f *cnf.Formula, k int) []bool {
	inA := make([]bool, len(f.Clauses))
	for i := 0; i < k && i < len(inA); i++ {
		inA[i] = true
	}
	return inA
}
