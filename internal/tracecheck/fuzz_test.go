package tracecheck

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"satcheck/internal/cnf"
	"satcheck/internal/kernel"
	"satcheck/internal/resolve"
	"satcheck/internal/testutil"
	"satcheck/internal/trace"
)

// FuzzTraceCheck holds the TraceCheck path to ground truth: on a formula
// of at most 8 variables decoded from form (decodeFormula) and arbitrary
// TraceCheck text, Replay and the kernel must not panic, and whatever the
// kernel accepts must be unsatisfiable by brute force.
func FuzzTraceCheck(f *testing.F) {
	xs := encodeFormula([][]int{{1}, {-1}})
	f.Add(xs, "1 1 0 0\n2 -1 0 0\n3 0 1 2 0\n")
	f.Add(xs, "1 1 0 0\n2 -1 0 0\n")
	f.Add(xs, "1 x 0 0\n")
	f.Add(xs, "")
	f.Add(xs, "9999999 1 0 1 0\n")
	// The formula's empty clause claimed by a formula without one, and
	// literals past 32 and 31 bits that once truncated to ¬x1 and to an
	// invalid literal.
	f.Add(xs, "1 0 0\n")
	f.Add(xs, "1 1 0 0\n2 -4294967297 0 0\n3 0 1 2 0\n")
	f.Add(xs, "1 2147483648 0 0\n")
	f.Fuzz(func(t *testing.T, form []byte, input string) {
		in := fuzzBytes(form)
		formula := decodeFormula(&in)
		var got []Clause
		err := Replay(formula, strings.NewReader(input), func(c Clause) error {
			got = append(got, Clause{ID: c.ID, Lits: slices.Clone(c.Lits), Hints: slices.Clone(c.Hints)})
			return nil
		})
		if err != nil {
			return
		}
		if _, err := kernel.Check(kernelFormula(formula), kernelProof(got), kernel.Options{}); err != nil {
			return
		}
		if sat, model := testutil.BruteForceSat(formula); sat {
			t.Fatalf("kernel accepted a refutation of a satisfiable formula (model %v):\n%s", model, input)
		}
	})
}

// FuzzDerive is the differential of Derive's resolvent: on a small formula
// and trace decoded from the fuzz bytes (decodeDerive), Derive must visit
// the same clauses, with the same Lits and Antecedents, as refDerive, the
// sorted-merge algorithm it replaced, or fail with the same error text;
// and the kernel must accept the hints of every derivation Derive accepts.
func FuzzDerive(f *testing.F) {
	const a, b, c, d = 1, 2, 3, 4
	// TestHandBuiltTraces' repeated-pivot trace: (a∨b) (¬a∨c) (¬c∨a) (¬a∨d)
	// resolve to (b∨d) on pivots a, c, a.
	f.Add(encodeDerive([][]int{{a, b}, {-a, c}, {-c, a}, {-a, d}, {-b}, {-d}},
		[][]int{{0, 1, 2, 3}}, []level0{{b, false, 4}, {d, false, 5}}, 6))
	// Its formula-empty-clause trace: the final conflict is the formula's
	// own empty clause.
	f.Add(encodeDerive([][]int{{a}, {}}, nil, nil, 1))
	// Chains through a tautological original, where marks and the merge
	// disagree: the merge of (a∨¬a) and (a) has no clash, while marks
	// count one; and a refutation whose tautological step the merge
	// accepts. Duplicate literals too.
	f.Add(encodeDerive([][]int{{a, -a, b}, {-b}, {b, b, -a}, {a}},
		[][]int{{0, 1}, {2, 1}, {4, 3}}, nil, 5))
	f.Add(encodeDerive([][]int{{a, -a, b}, {-b}, {a, a}, {-a, b}},
		[][]int{{0, 1}, {4, 3}, {5, 1}, {6, 2}}, nil, 7))
	f.Fuzz(func(t *testing.T, in []byte) {
		form, mt := decodeDerive(in)
		want, wantErr := refDerive(form, mt)
		var got []Clause
		err := Derive(form, mt, func(c Clause) error {
			got = append(got, Clause{ID: c.ID, Lits: slices.Clone(c.Lits),
				Antecedents: slices.Clone(c.Antecedents), Hints: slices.Clone(c.Hints)})
			return nil
		})
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("verdicts differ:\n  Derive:    %v\n  reference: %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("errors differ:\n  Derive:    %v\n  reference: %v", err, wantErr)
		case err != nil:
			return
		case len(got) != len(want):
			t.Fatalf("Derive visited %d clauses, reference derives %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.ID != w.ID || !slices.Equal(g.Lits, w.Lits) || !slices.Equal(g.Antecedents, w.Antecedents) {
				t.Fatalf("clause %d differs:\n  Derive:    %d %v <- %v\n  reference: %d %v <- %v",
					i, g.ID, g.Lits, g.Antecedents, w.ID, w.Lits, w.Antecedents)
			}
		}
		if _, err := kernel.Check(kernelFormula(form), kernelProof(got), kernel.Options{}); err != nil {
			t.Fatalf("kernel rejects Derive's hints: %v", err)
		}
	})
}

// level0 is one level-0 record of a fuzz seed.
type level0 struct {
	v     int
	value bool
	ante  int
}

// fuzzBytes hands out fuzz input a byte at a time; missing bytes read as
// 0.
type fuzzBytes []byte

func (in *fuzzBytes) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// decodeFormula reads a formula of up to 8 clauses of up to 4 literals
// over variables 1..8, tautologies and duplicate literals included.
func decodeFormula(in *fuzzBytes) *cnf.Formula {
	form := cnf.NewFormula(8)
	for range 1 + in.next()%8 {
		var cl cnf.Clause
		for range in.next() % 5 {
			cl = append(cl, decodeLit(in.next()))
		}
		form.Add(cl)
	}
	return form
}

func decodeLit(b int) cnf.Lit { return cnf.NewLit(cnf.Var(1+(b>>1)%8), b&1 == 1) }

// decodeDerive reads a formula (decodeFormula), up to 7 learned records
// of 1–4 sources naming earlier IDs, up to 7 level-0 records and a final
// conflict; level-0 antecedents and the final conflict may name one ID
// past the last clause.
func decodeDerive(data []byte) (*cnf.Formula, *trace.MemoryTrace) {
	in := fuzzBytes(data)
	form := decodeFormula(&in)
	nOrig := len(form.Clauses)
	mt := &trace.MemoryTrace{}
	nLearned := in.next() % 8
	for i := range nLearned {
		id := nOrig + i
		srcs := make([]int, 1+in.next()%4)
		for j := range srcs {
			srcs[j] = in.next() % id
		}
		mt.Learned(id, srcs)
	}
	ids := nOrig + nLearned
	for range in.next() % 8 {
		l := decodeLit(in.next())
		mt.LevelZero(l.Var(), !l.IsNeg(), in.next()%(ids+1))
	}
	mt.FinalConflict(in.next() % (ids + 1))
	return form, mt
}

// encodeFormula is decodeFormula's inverse for in-range DIMACS clauses.
func encodeFormula(clauses [][]int) []byte {
	in := []byte{byte(len(clauses) - 1)}
	for _, cl := range clauses {
		in = append(in, byte(len(cl)))
		for _, d := range cl {
			in = append(in, encodeLit(d))
		}
	}
	return in
}

func encodeLit(d int) byte {
	l := cnf.LitFromDimacs(d)
	return byte(int(l.Var()-1)<<1 | int(l&1))
}

// encodeDerive is decodeDerive's inverse for in-range seeds: DIMACS
// clauses, learned source lists (0-based IDs), level-0 records and the
// final conflict.
func encodeDerive(clauses, learned [][]int, zero []level0, final int) []byte {
	in := append(encodeFormula(clauses), byte(len(learned)))
	for _, srcs := range learned {
		in = append(in, byte(len(srcs)-1))
		for _, s := range srcs {
			in = append(in, byte(s))
		}
	}
	in = append(in, byte(len(zero)))
	for _, r := range zero {
		d := r.v
		if !r.value {
			d = -d
		}
		in = append(in, encodeLit(d), byte(r.ante))
	}
	return append(in, byte(final))
}

// refDerive is the derivation Derive replaced, kept as its reference:
// resolve.Chain's sorted merge per learned clause, then FinalChain. It
// returns the clauses Derive visits, without Hints.
func refDerive(f *cnf.Formula, src trace.Source) ([]Clause, error) {
	data, err := trace.Load(src)
	if err != nil {
		return nil, err
	}
	nOrig := len(f.Clauses)
	if data.FirstLearned != -1 && data.FirstLearned != nOrig {
		return nil, fmt.Errorf("tracecheck: trace starts learned IDs at %d but formula has %d clauses",
			data.FirstLearned, nOrig)
	}
	clauses := make([]cnf.Clause, 0, nOrig+data.NumLearned())
	for _, c := range f.Clauses {
		nc, _ := c.Clone().Normalize()
		clauses = append(clauses, nc)
	}
	oneBased := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = id + 1
		}
		return out
	}
	var out []Clause
	for i, srcs := range data.LearnedSources {
		chain := make([]cnf.Clause, len(srcs))
		for j, s := range srcs {
			chain[j] = clauses[s]
		}
		lits, err := resolve.Chain(chain[0], chain[1:])
		if err != nil {
			return nil, fmt.Errorf("tracecheck: deriving clause %d: %w", nOrig+i, err)
		}
		clauses = append(clauses, lits)
		out = append(out, Clause{ID: nOrig + i + 1, Lits: lits, Antecedents: oneBased(srcs)})
	}
	srcs, _, err := FinalChain(data, func(id int) (cnf.Clause, error) {
		if id < 0 || id >= len(clauses) {
			return nil, fmt.Errorf("tracecheck: clause %d out of range", id)
		}
		return clauses[id], nil
	})
	if err != nil {
		return nil, err
	}
	switch id := len(clauses) + 1; {
	case len(srcs) > 1:
		out = append(out, Clause{ID: id, Lits: cnf.Clause{}, Antecedents: oneBased(srcs)})
	case data.FinalConflict < nOrig:
		out = append(out, Clause{ID: id, Lits: cnf.Clause{}})
	}
	return out, nil
}

// kernelFormula flattens f, normalized, for the kernel.
func kernelFormula(f *cnf.Formula) *kernel.Formula {
	kf := &kernel.Formula{Off: []int32{0}, NumVars: int32(f.NumVars)}
	for _, c := range f.Clauses {
		nc, _ := c.Clone().Normalize()
		for _, l := range nc {
			kf.Lits = append(kf.Lits, int32(l))
		}
		kf.Off = append(kf.Off, int32(len(kf.Lits)))
	}
	return kf
}

// kernelProof flattens derived clauses into a kernel proof.
func kernelProof(clauses []Clause) *kernel.Proof {
	kp := &kernel.Proof{}
	for _, c := range clauses {
		op := kernel.Op{ID: int32(c.ID), LitOff: int32(len(kp.Lits)), HintOff: int32(len(kp.Hints))}
		for _, l := range c.Lits {
			kp.Lits = append(kp.Lits, int32(l))
			kp.MaxVar = max(kp.MaxVar, int32(l.Var()))
		}
		for _, h := range c.Hints {
			kp.Hints = append(kp.Hints, int32(h))
		}
		op.LitN, op.HintN = int32(len(c.Lits)), int32(len(c.Hints))
		kp.Ops = append(kp.Ops, op)
		kp.NumAdds++
	}
	return kp
}
