package resolve

import (
	"math"
	"slices"
	"testing"

	"satcheck/internal/cnf"
)

// fuzzWidth is the widest variable FuzzChain's resolver marks; decoded
// literals reach variable 8, so some lie beyond the marks.
const fuzzWidth = 6

// FuzzChain holds Resolver.Chain to the ResolventInto loop it replaces
// (refChain): on chains of up to 6 clauses over variables 1..8, normalized
// or left as decoded (unsorted, with duplicates and complementary pairs),
// Chain must return the same clause, or fail at the same step with the
// same error text, and leave the chain's clauses as they were. One
// resolver serves every input, so stale marks from earlier chains are
// exercised too.
func FuzzChain(f *testing.F) {
	const a, b, c, d = 1, 2, 3, 4
	// A pivot that leaves and comes back: (a∨b) (¬a∨c) (¬c∨a) (¬a∨d)
	// resolve to (b∨d) on pivots a, c, a.
	f.Add(encodeChain(false, []int{a, b}, []int{-a, c}, []int{-c, a}, []int{-a, d}))
	// A step with two clashes, and one with none.
	f.Add(encodeChain(false, []int{a, b}, []int{-a, -b}))
	f.Add(encodeChain(false, []int{a, b}, []int{c}))
	// A tautological source, where the merge finds no clash and marks
	// would count one; and ones the merge accepts, the first of which
	// marks alone would resolve to the empty clause.
	f.Add(encodeChain(false, []int{a, -a, b}, []int{a}))
	f.Add(encodeChain(false, []int{a, -a, b}, []int{-b}))
	f.Add(encodeChain(false, []int{b}, []int{a, -a, -b}))
	// An empty resolvent.
	f.Add(encodeChain(false, []int{a}, []int{-a}))
	// An unsorted clause with a duplicate, and a literal beyond the marks.
	f.Add(encodeChain(true, []int{b, a, b}, []int{-a}))
	f.Add(encodeChain(false, []int{a, 8}, []int{-a, -8}, []int{8}))
	r := NewResolver(fuzzWidth)
	f.Fuzz(func(t *testing.T, in []byte) {
		chain := decodeChain(in)
		before := make([]cnf.Clause, len(chain))
		for i, cl := range chain {
			before[i] = slices.Clone(cl)
		}
		want, wantStep, wantErr := refChain(chain)
		got, step, err := r.Chain(chain)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%v: verdicts differ:\n  Chain:     %v %v\n  reference: %v %v", chain, got, err, want, wantErr)
		case err != nil && (step != wantStep || err.Error() != wantErr.Error()):
			t.Fatalf("%v: errors differ:\n  Chain:     step %d: %v\n  reference: step %d: %v", chain, step, err, wantStep, wantErr)
		case err == nil && !slices.Equal(got, want):
			t.Fatalf("%v: resolvents differ:\n  Chain:     %v\n  reference: %v", chain, got, want)
		}
		for i := range chain {
			if !slices.Equal(chain[i], before[i]) {
				t.Fatalf("Chain changed clause %d of its chain: %v, was %v", i, chain[i], before[i])
			}
		}
	})
}

// TestResolverEpochWrap runs chains across the wrap of the mark epoch,
// where the marks are cleared and stamping starts again from 1.
func TestResolverEpochWrap(t *testing.T) {
	r := NewResolver(4)
	r.epoch = math.MaxUint32 - 2
	chains := [][]cnf.Clause{
		{clause(1, 2), clause(-2, 3)},
		{clause(1, 2), clause(-1, 3), clause(-3, 1), clause(-1, 4)},
		{clause(1, 2), clause(-1, -2)},
		{clause(3), clause(-3)},
		{clause(1, 3), clause(-3, 4), clause(-4, 2)},
	}
	for range 3 {
		for _, chain := range chains {
			want, wantStep, wantErr := refChain(chain)
			got, step, err := r.Chain(chain)
			if (err == nil) != (wantErr == nil) || step != wantStep || !slices.Equal(got, want) {
				t.Fatalf("epoch %d: %v: got %v step %d err %v, want %v step %d err %v",
					r.epoch, chain, got, step, err, want, wantStep, wantErr)
			}
		}
	}
}

// refChain is the ResolventInto loop Resolver.Chain replaces: chain[0]
// resolved against each later clause in turn, failing at the first step
// ResolventInto refuses.
func refChain(chain []cnf.Clause) (cnf.Clause, int, error) {
	cl := chain[0]
	for i, src := range chain[1:] {
		next, _, err := ResolventInto(nil, cl, src)
		if err != nil {
			return nil, i + 1, err
		}
		cl = next
	}
	return cl, 0, nil
}

// decodeChain reads 1 to 6 clauses. Each clause header byte gives its
// length (0 to 5, low three bits mod 6) and whether it stays as decoded
// (bit 3) instead of being normalized; each literal byte names variable
// 1+(b>>1)%8 with sign b&1. Missing bytes read as 0.
func decodeChain(data []byte) []cnf.Clause {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	chain := make([]cnf.Clause, 1+next()%6)
	for i := range chain {
		h := next()
		cl := cnf.Clause{}
		for range (h & 7) % 6 {
			b := next()
			cl = append(cl, cnf.NewLit(cnf.Var(1+(b>>1)%8), b&1 == 1))
		}
		if h&8 == 0 {
			cl, _ = cl.Normalize()
		}
		chain[i] = cl
	}
	return chain
}

// encodeChain is decodeChain's inverse for DIMACS clauses of at most 5
// literals over variables 1..8.
func encodeChain(raw bool, clauses ...[]int) []byte {
	in := []byte{byte(len(clauses) - 1)}
	for _, cl := range clauses {
		h := byte(len(cl))
		if raw {
			h |= 8
		}
		in = append(in, h)
		for _, d := range cl {
			l := cnf.LitFromDimacs(d)
			in = append(in, byte(int(l.Var()-1)<<1|int(l&1)))
		}
	}
	return in
}
