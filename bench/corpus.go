package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"satcheck"
	"satcheck/internal/faults"
	"satcheck/internal/gen"
	"satcheck/internal/trace"
)

// Proof formats of an item.
const (
	formatTrace = "trace" // native binary resolution trace
	formatLRAT  = "lrat"
)

// item is one input the benchmark checks, with its known answer.
type item struct {
	Name   string `json:"name"`
	CNF    string `json:"cnf"`
	Proof  string `json:"proof"`
	Format string `json:"format"`
	// Valid is the known answer: solver proofs are valid, mutants and
	// truncated proofs must be rejected.
	Valid bool `json:"valid"`
	// Lemmas counts the proof steps: learned-clause records of a trace,
	// addition lines of an LRAT proof.
	Lemmas int   `json:"lemmas"`
	Bytes  int64 `json:"bytes"`
	// Repeat is how many times one pass checks the item (default once).
	Repeat int `json:"repeat,omitempty"`
}

// corpus is a workload's generated inputs, written under dir.
type corpus struct {
	Items []item `json:"items"`
	// SHA256 digests every input file in item order, so runs on two commits
	// can be shown to check identical inputs.
	SHA256 string `json:"sha256"`
}

// order expands Repeat into the sequence of item indices one pass checks.
func (c *corpus) order() []int {
	var o []int
	for i, it := range c.Items {
		for r := 0; r < max(it.Repeat, 1); r++ {
			o = append(o, i)
		}
	}
	return o
}

// summary is the input digest printed for every workload.
func (c *corpus) summary() (proofs, lemmas int, bytes int64) {
	for _, it := range c.Items {
		proofs++
		lemmas += it.Lemmas
		bytes += it.Bytes
	}
	return
}

const manifestName = "manifest.json"

func (c *corpus) save(dir string) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), b, 0o644)
}

func loadCorpus(dir string) (*corpus, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return c, nil
}

// digest hashes the item names and the bytes of every input file.
func (c *corpus) digest() error {
	h := sha256.New()
	for _, it := range c.Items {
		fmt.Fprintf(h, "%s\n", it.Name)
		for _, p := range []string{it.CNF, it.Proof} {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%d\n", len(b))
			h.Write(b)
		}
	}
	c.SHA256 = hex.EncodeToString(h.Sum(nil))
	return nil
}

// traceInstances is the mid-size mix behind trace-kernel, trace-hybrid and
// lrat-kernel. The five fixed instances are each slower to check, by every
// method, than any of the three seeded ones, so the median and p90 checks
// are always fixed instances: the seed changes which formulas the seeded
// families produce without moving the latency percentiles.
func traceInstances(seed int64) []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(7),
		gen.CECMultiplier(5),
		gen.PipelineALU(32),
		gen.CECAdder(40),
		gen.BMCCounter(6, 60),
		gen.TseitinCharge(16, seed),
		gen.FPGARouting(24, 6, 16, seed),
		gen.Scheduling(24, 6, 30, seed),
	}
}

// serviceInstances is the mix of the service workloads. Five fixed
// instances with hybrid checks of 3-7 ms carry the latency percentiles: of
// the nine inputs, p50 is the fifth-fastest and p90 the slowest. The three
// seeded ones, and the mutant made from the first of them, take under a
// millisecond whatever the seed, so the seed does not move a pass.
//
// Checks of a few milliseconds keep the router's store fsyncs, whose cost
// on a shared disk swings by 2x over tens of seconds, to a small share of
// a routed request. With checks of about a millisecond they were a third
// of one, and the median routed request spread by up to 0.33 over ten runs.
func serviceInstances(seed int64) []gen.Instance {
	return []gen.Instance{
		gen.FPGARouting(20, 5, 12, seed),
		gen.TseitinCharge(12, seed),
		gen.Scheduling(20, 5, 20, seed),
		gen.Pigeonhole(6),
		gen.CECAdder(24),
		gen.PipelineALU(8),
		gen.BMCCounter(6, 30),
		gen.CECMultiplier(4),
	}
}

// solved is one instance with its solver trace.
type solved struct {
	ins gen.Instance
	tr  *trace.MemoryTrace
}

func solveAll(instances []gen.Instance) ([]solved, error) {
	out := make([]solved, len(instances))
	for i, ins := range instances {
		run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
		if err != nil {
			return nil, fmt.Errorf("solving %s: %w", ins.Name, err)
		}
		if run.Status != satcheck.StatusUnsat {
			return nil, fmt.Errorf("solving %s: got %v, want UNSAT", ins.Name, run.Status)
		}
		out[i] = solved{ins: ins, tr: run.Trace}
	}
	return out, nil
}

// writeTraceItem writes f and tr as a DIMACS file and a binary trace.
func writeTraceItem(dir, name string, f *satcheck.Formula, tr *trace.MemoryTrace, valid bool) (item, error) {
	it := item{Name: name, Format: formatTrace, Valid: valid,
		CNF: filepath.Join(dir, name+".cnf"), Proof: filepath.Join(dir, name+".trace")}
	if err := writeCNF(it.CNF, f); err != nil {
		return it, err
	}
	var buf bytes.Buffer
	if err := tr.Replay(trace.NewBinaryWriter(&buf)); err != nil {
		return it, err
	}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindLearned {
			it.Lemmas++
		}
	}
	it.Bytes = int64(buf.Len())
	return it, os.WriteFile(it.Proof, buf.Bytes(), 0o644)
}

func writeCNF(path string, f *satcheck.Formula) error {
	var buf bytes.Buffer
	if err := satcheck.WriteDimacs(&buf, f); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// dropLearned applies the drop-learned-clause fault, a structural corruption
// every checker must reject.
func dropLearned(tr *trace.MemoryTrace, seed int64) (*trace.MemoryTrace, error) {
	m, err := faults.ByName("drop-learned-clause")
	if err != nil {
		return nil, err
	}
	bad, ok := faults.Inject(m, tr, seed)
	if !ok {
		return nil, fmt.Errorf("drop-learned-clause does not apply")
	}
	return bad, nil
}

// nativeCorpus writes the solver traces of instances plus one
// drop-learned-clause mutant of the trace of instances[mutantOf].
func nativeCorpus(dir string, seed int64, instances []gen.Instance, mutantOf int) (*corpus, error) {
	runs, err := solveAll(instances)
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	for _, s := range runs {
		it, err := writeTraceItem(dir, s.ins.Name, s.ins.F, s.tr, true)
		if err != nil {
			return nil, err
		}
		c.Items = append(c.Items, it)
	}
	base := runs[mutantOf]
	bad, err := dropLearned(base.tr, seed)
	if err != nil {
		return nil, err
	}
	it, err := writeTraceItem(dir, base.ins.Name+"-drop-learned", base.ins.F, bad, false)
	if err != nil {
		return nil, err
	}
	c.Items = append(c.Items, it)
	return c, nil
}

func traceCorpus(dir string, seed int64, _ int) (*corpus, error) {
	return nativeCorpus(dir, seed, traceInstances(seed), 0)
}

func serviceCorpus(dir string, seed int64, _ int) (*corpus, error) {
	return nativeCorpus(dir, seed, serviceInstances(seed), 0)
}

// lratCorpus converts the traces of traceInstances to LRAT once, plus a
// copy of the first one truncated before its empty clause.
func lratCorpus(dir string, seed int64, _ int) (*corpus, error) {
	runs, err := solveAll(traceInstances(seed))
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	var first []byte
	for i, s := range runs {
		var buf bytes.Buffer
		if _, err := satcheck.TraceToLRAT(s.ins.F, s.tr, &buf, satcheck.CheckOptions{}); err != nil {
			return nil, fmt.Errorf("converting %s to LRAT: %w", s.ins.Name, err)
		}
		it, err := writeLRATItem(dir, s.ins.Name, s.ins.F, buf.Bytes(), true)
		if err != nil {
			return nil, err
		}
		c.Items = append(c.Items, it)
		if i == 0 {
			first = buf.Bytes()
		}
	}
	cut, err := truncateLRAT(first)
	if err != nil {
		return nil, err
	}
	it, err := writeLRATItem(dir, runs[0].ins.Name+"-truncated", runs[0].ins.F, cut, false)
	if err != nil {
		return nil, err
	}
	c.Items = append(c.Items, it)
	return c, nil
}

// Out-of-core proof shape: a 7.5 MB stress proof that a 16 MiB budget
// splits into about a dozen windows. At well under a second per check, a
// run makes enough checks for steady percentiles and peak RSS.
const (
	stressLemmas = 200_000
	stressWidth  = 64
	// The seed moves the hint gap within ±500 of stressGap. The gap sets
	// how many clauses are spilled and re-read, so a wider range would
	// change the work per check from seed to seed.
	stressGap = 25_000
	oocBudget = 16 << 20
)

// stressCorpus writes a gen stress proof and a truncated copy; one pass
// checks the valid proof three times and the truncated one once. scale
// divides the proof size (1 in real runs, larger in tests).
func stressCorpus(dir string, seed int64, scale int) (*corpus, error) {
	o := gen.StressOpts{Lemmas: stressLemmas / scale, Width: stressWidth,
		Gap: (stressGap + int(uint64(seed)%1001) - 500) / scale}
	f := gen.StressFormula(o)
	var buf bytes.Buffer
	if err := gen.WriteStressLRAT(&buf, o); err != nil {
		return nil, err
	}
	valid, err := writeLRATItem(dir, "stress", f, buf.Bytes(), true)
	if err != nil {
		return nil, err
	}
	valid.Repeat = 3
	cut, err := truncateLRAT(buf.Bytes())
	if err != nil {
		return nil, err
	}
	bad, err := writeLRATItem(dir, "stress-truncated", f, cut, false)
	if err != nil {
		return nil, err
	}
	return &corpus{Items: []item{valid, bad}}, nil
}

func writeLRATItem(dir, name string, f *satcheck.Formula, proof []byte, valid bool) (item, error) {
	it := item{Name: name, Format: formatLRAT, Valid: valid, Bytes: int64(len(proof)),
		CNF: filepath.Join(dir, name+".cnf"), Proof: filepath.Join(dir, name+".lrat"),
		Lemmas: lratAdditions(proof)}
	if err := writeCNF(it.CNF, f); err != nil {
		return it, err
	}
	return it, os.WriteFile(it.Proof, proof, 0o644)
}

// lratAdditions counts the addition lines of an ASCII LRAT proof; deletion
// lines have "d" as their second token.
func lratAdditions(proof []byte) int {
	n := 0
	for _, line := range bytes.Split(proof, []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) >= 2 && !bytes.Equal(fields[1], []byte("d")) {
			n++
		}
	}
	return n
}

// truncateLRAT cuts an LRAT proof just before its last addition of the
// empty clause (a line "<id> 0 <hints> 0"), so the kernel must reject it.
func truncateLRAT(proof []byte) ([]byte, error) {
	end := len(proof)
	for end > 0 {
		start := bytes.LastIndexByte(proof[:end-1], '\n') + 1
		fields := bytes.Fields(proof[start:end])
		if len(fields) >= 2 && bytes.Equal(fields[1], []byte("0")) {
			return proof[:start:start], nil
		}
		end = start
	}
	return nil, fmt.Errorf("LRAT proof has no empty-clause line")
}
