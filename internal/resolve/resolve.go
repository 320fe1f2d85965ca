// Package resolve implements propositional resolution over canonical
// (sorted, duplicate-free) clauses. It is the single deduction rule the
// paper's checker trusts: if every step of a derivation is a valid
// resolution and the final clause is empty, the original formula is
// unsatisfiable (the paper's Lemma in §2.2).
//
// ResolventInto is the rule itself, a sorted merge of two clauses. Resolver
// applies it to a whole chain, the paper's cl = resolve(cl, src_i) loop,
// with literal marks that cost each step only its source's literals, and
// replays the merge wherever the two could disagree. The streaming checkers
// (internal/checker) and tracecheck.Derive share that one resolver.
package resolve

import (
	"errors"
	"fmt"
	"slices"

	"satcheck/internal/cnf"
)

// Error kinds reported by the resolution engine. The checker wraps these in
// richer diagnostics; tests match on them with errors.Is.
var (
	// ErrNoClash is returned when the two clauses share no variable in
	// opposite phase, so resolution does not apply.
	ErrNoClash = errors.New("resolve: no clashing variable")
	// ErrMultiClash is returned when more than one variable appears in both
	// clauses in opposite phase; the resolvent of such a pair is a tautology
	// and the paper's checker treats the step as invalid.
	ErrMultiClash = errors.New("resolve: more than one clashing variable")
	// ErrNotSorted is returned when an input clause is not canonical.
	ErrNotSorted = errors.New("resolve: clause not in canonical sorted form")
)

// Resolvent computes the resolvent of two canonical clauses, returning the
// resolvent (also canonical) and the pivot variable. It fails unless exactly
// one variable appears in both clauses with opposite phase — the validity
// condition the paper's resolve(cl, cl1) check enforces.
//
// The merge is O(len(a)+len(b)) and allocates only the output clause.
func Resolvent(a, b cnf.Clause) (cnf.Clause, cnf.Var, error) {
	n := len(a) + len(b) - 2
	if n < 0 {
		n = 0
	}
	return ResolventInto(make(cnf.Clause, 0, n), a, b)
}

// ResolventInto is Resolvent resolving into caller-owned scratch storage:
// the resolvent is appended to dst[:0] (growing it as needed) and returned,
// so a hot loop that keeps reusing the returned slice as the next call's dst
// performs no allocation at all once the scratch has warmed up. dst must not
// alias a or b. The returned clause shares dst's storage — callers that
// retain it past the next reuse must copy it out first.
func ResolventInto(dst, a, b cnf.Clause) (cnf.Clause, cnf.Var, error) {
	if !a.IsSorted() {
		return nil, cnf.NoVar, fmt.Errorf("%w: %s", ErrNotSorted, a)
	}
	if !b.IsSorted() {
		return nil, cnf.NoVar, fmt.Errorf("%w: %s", ErrNotSorted, b)
	}
	out := dst[:0]
	pivot := cnf.NoVar
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		la, lb := a[i], b[j]
		switch {
		case la == lb:
			out = append(out, la)
			i++
			j++
		case la == lb.Neg():
			if pivot != cnf.NoVar {
				return nil, cnf.NoVar, fmt.Errorf("%w: %v and %v in %s | %s", ErrMultiClash, pivot, la.Var(), a, b)
			}
			pivot = la.Var()
			i++
			j++
		case la < lb:
			out = append(out, la)
			i++
		default:
			out = append(out, lb)
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if pivot == cnf.NoVar {
		return nil, cnf.NoVar, fmt.Errorf("%w: %s | %s", ErrNoClash, a, b)
	}
	return out, pivot, nil
}

// ResolventOn resolves a and b on the given variable, verifying that v is
// the unique clashing variable. It is what the checker uses when the
// derivation dictates the pivot (the level-zero final stage).
func ResolventOn(a, b cnf.Clause, v cnf.Var) (cnf.Clause, error) {
	out, pivot, err := Resolvent(a, b)
	if err != nil {
		return nil, err
	}
	if pivot != v {
		return nil, fmt.Errorf("resolve: expected pivot %d, clauses clash on %d", v, pivot)
	}
	return out, nil
}

// Chain sequentially resolves start against each clause in sources,
// returning the final clause. This is exactly the checker's recursive_build
// inner loop from Figure 3 of the paper: cl = resolve(cl, src_i) with every
// intermediate step validated. The result is a fresh, exact-size, non-nil
// clause.
func Chain(start cnf.Clause, sources []cnf.Clause) (cnf.Clause, error) {
	var buf [2]cnf.Clause
	cl, step, err := merge(&buf, start, sources)
	if err != nil {
		return nil, fmt.Errorf("step %d of %d: %w", step, len(sources), err)
	}
	return append(make(cnf.Clause, 0, len(cl)), cl...), nil
}

// merge is Chain's loop: ResolventInto through the two ping-pong buffers
// buf, so no step's dst aliases its operands. It returns the last
// resolvent (start itself when sources is empty), or the 1-based step that
// failed and its error.
func merge(buf *[2]cnf.Clause, start cnf.Clause, sources []cnf.Clause) (cnf.Clause, int, error) {
	cl := start
	for i, src := range sources {
		next, _, err := ResolventInto(buf[i%2], cl, src)
		if err != nil {
			return nil, i + 1, err
		}
		buf[i%2], cl = next, next
	}
	return cl, 0, nil
}

// Resolver resolves chains of clauses as Chain does, with epoch-stamped
// literal marks instead of a merge per step: a step costs only its
// source's literals, checked against the marks of the resolvent so far,
// and the resolvent is sorted once at the end. One Resolver serves any
// number of chains, one at a time; it is not safe for concurrent use.
type Resolver struct {
	mark  []uint32 // mark[l] == epoch while l is in the resolvent
	epoch uint32
	cur   cnf.Clause    // the resolvent's literals, with ones since removed
	buf   [2]cnf.Clause // merge's ping-pong buffers
}

// NewResolver returns a Resolver whose marks cover the literals of
// variables 1..maxVar, the widest variable of the clauses it will see.
func NewResolver(maxVar int) *Resolver {
	return &Resolver{mark: make([]uint32, 2*maxVar+2)}
}

// Chain resolves chain[0] against chain[1:] in turn and returns the
// resolvent, or the 1-based step that failed (the index in chain of the
// source being resolved) and the error ResolventInto gives for it. chain
// must hold at least one clause, and none may be a clause r returned. The
// returned clause lives in r's storage and stays valid until the next call.
//
// Marks and the merge agree on canonical clauses without complementary
// pairs, and can disagree on ones with them: the merge of {x, ¬x} and {x}
// has no clash, while marks count one. So when a clause is unsorted, has
// a duplicate or a complementary pair, or has a literal beyond the marks,
// or when a step does not clash on exactly one variable, Chain replays
// the merge from step 1 and returns its clause, or its step and error.
func (r *Resolver) Chain(chain []cnf.Clause) (cnf.Clause, int, error) {
	lits, ok := r.marks(chain)
	if r.cur = lits; ok {
		return lits, 0, nil
	}
	return merge(&r.buf, chain[0], chain[1:])
}

// marks resolves chain in r.cur's storage and returns the sorted
// resolvent, with ok reporting whether every clause was canonical without
// complementary pairs and within the marks, and every step clashed on
// exactly one variable. When not, the slice only carries the storage.
func (r *Resolver) marks(chain []cnf.Clause) (lits cnf.Clause, ok bool) {
	if r.epoch++; r.epoch == 0 {
		clear(r.mark)
		r.epoch = 1
	}
	e, mark := r.epoch, r.mark
	cur := r.cur[:0]
	for i, cl := range chain {
		clashes := 0
		prev := cnf.NoLit
		for _, l := range cl {
			// Sorted order puts x and ¬x side by side, so comparing each
			// literal with the one before finds duplicates and
			// complementary pairs as well as disorder.
			if l <= prev || l == prev.Neg() || int(l) >= len(mark) {
				return cur, false
			}
			prev = l
			switch {
			case mark[l.Neg()] == e:
				mark[l.Neg()] = 0 // the pivot leaves the resolvent
				clashes++
			case mark[l] != e:
				mark[l] = e
				cur = append(cur, l)
			}
		}
		if i > 0 && clashes != 1 {
			return cur, false
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
	return out, true
}

// Implies reports whether every total assignment satisfying all of premises
// also satisfies concl. It enumerates assignments over the variables that
// occur, so it is only suitable for tests and small inputs; it exists to
// state the soundness property ("the resolvent is redundant with respect to
// the original clauses") checkable by property-based tests.
func Implies(premises []cnf.Clause, concl cnf.Clause, numVars int) bool {
	a := cnf.NewAssignment(numVars)
	var rec func(v cnf.Var) bool
	rec = func(v cnf.Var) bool {
		if int(v) > numVars {
			for _, p := range premises {
				if p.Eval(a) != cnf.True {
					return true // premise falsified: vacuously fine
				}
			}
			return concl.Eval(a) == cnf.True
		}
		for _, val := range []cnf.Value{cnf.True, cnf.False} {
			a.Set(v, val)
			if !rec(v + 1) {
				a.Set(v, cnf.Unknown)
				return false
			}
		}
		a.Set(v, cnf.Unknown)
		return true
	}
	return rec(1)
}
