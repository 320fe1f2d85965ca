// Package resolve implements propositional resolution over canonical
// (sorted, duplicate-free) clauses. It is the single deduction rule the
// paper's checker trusts: if every step of a derivation is a valid
// resolution and the final clause is empty, the original formula is
// unsatisfiable (the paper's Lemma in §2.2).
package resolve

import (
	"errors"
	"fmt"

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
// alias a or b; the checkers ping-pong two scratch buffers per chain to
// guarantee that. The returned clause shares dst's storage — callers that
// retain it past the next reuse must copy it out first.
func ResolventInto(dst, a, b cnf.Clause) (cnf.Clause, cnf.Var, error) {
	if !a.IsSorted() {
		return nil, cnf.NoVar, fmt.Errorf("%w: %s", ErrNotSorted, a)
	}
	if !b.IsSorted() {
		return nil, cnf.NoVar, fmt.Errorf("%w: %s", ErrNotSorted, b)
	}
	return ResolventIntoSorted(dst, a, b)
}

// ResolventIntoSorted is ResolventInto without the canonical-form
// re-validation of the inputs — the caller guarantees both clauses are
// sorted. The checkers' build loops qualify: every input is either a
// normalized original clause or a previously stored resolvent, and the merge
// below only ever produces sorted output, so re-checking each operand on
// every step of a chain is pure overhead (it shows up in profiles as ~10% of
// check time). Passing an unsorted clause yields an undefined result, not an
// error; use ResolventInto when the inputs are not already trusted.
func ResolventIntoSorted(dst, a, b cnf.Clause) (cnf.Clause, cnf.Var, error) {
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
// intermediate step validated. Intermediate resolvents live in two
// ping-pong buffers; the result is a fresh, exact-size, non-nil clause.
func Chain(start cnf.Clause, sources []cnf.Clause) (cnf.Clause, error) {
	cl := start
	var buf [2]cnf.Clause
	for i, src := range sources {
		next, _, err := ResolventInto(buf[i%2][:0], cl, src)
		if err != nil {
			return nil, fmt.Errorf("step %d of %d: %w", i+1, len(sources), err)
		}
		buf[i%2], cl = next, next
	}
	return append(make(cnf.Clause, 0, len(cl)), cl...), nil
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
