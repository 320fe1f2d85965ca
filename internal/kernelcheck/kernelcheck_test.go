package kernelcheck

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"satcheck/internal/certify/kernelpipe"
	"satcheck/internal/checker"
	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/solver"
	"satcheck/internal/trace"
)

// chainFormula is {(x1), (-x1 x2), (-x1 -x2)}: refuted by
// "4 2 0 1 2 0" then "5 0 1 3 4 0".
func chainFormula() *cnf.Formula {
	f := cnf.NewFormula(2)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-1, -2)
	return f
}

const chainProof = "4 2 0 1 2 0\n5 0 1 3 4 0\n"

func gzipped(t testing.TB, s string) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// parsedCheck is CheckLRAT by way of the structured parser: drat.ParseLRAT,
// then flatten and the kernel with the core marked.
func parsedCheck(f *cnf.Formula, in []byte) (*checker.Result, error) {
	proof, err := drat.ParseLRAT(bytes.NewReader(in))
	if err != nil {
		return nil, &checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}
	}
	return checkLRATKernel(f, proof, checker.Options{}, true)
}

// pathOnly is a file-backed source that is neither drat.FileSource nor
// drat.BytesSource, like the facade's context wrapper.
type pathOnly string

func (p pathOnly) ProofPath() string            { return string(p) }
func (p pathOnly) Open() (io.ReadCloser, error) { return os.Open(string(p)) }

// openOnly exposes nothing but Open, like a server spool.
type openOnly struct{ src drat.Source }

func (o openOnly) Open() (io.ReadCloser, error) { return o.src.Open() }

// TestCheckLRATMatchesParsed pins CheckLRAT's scan against the structured
// parser on every tokenizer diagnostic, the 31-bit range checks and the
// literal guard: same verdict, Kind, ClauseID and message, and on
// acceptance the same Result, core included. Each input is read through
// every kind of source CheckLRAT distinguishes.
func TestCheckLRATMatchesParsed(t *testing.T) {
	wide := cnf.NewFormula(1 << 30) // past the kernel's literal space
	wide.AddClause(1)
	wide.AddClause(-1)
	cases := []struct {
		name string
		in   string
		f    *cnf.Formula
		ok   bool
	}{
		{name: "valid", in: chainProof, ok: true},
		{name: "comments and CRLF", in: "c head\r\n4 2 0 1 c mid-line\r\n2 0\r\n\r\nc tail\r\n5 0 1 3 4 0\r\n", ok: true},
		{name: "comment at EOF", in: chainProof + "c no newline", ok: true},
		{name: "deletion", in: "4 2 0 1 2 0\n4 d 2 0\n5 0 1 3 4 0\n", ok: true},
		{name: "empty input", in: ""},
		{name: "whitespace only", in: " \t\r\n\n"},
		{name: "d for clause ID", in: "d 1 0\n"},
		{name: "zero clause ID", in: "0 1 0\n"},
		{name: "negative clause ID", in: "4 2 0 1 2 0\n-5 0 1 0\n"},
		{name: "truncated line", in: "4"},
		{name: "truncated line by bad byte", in: "3 0 1 3000000000 0\n4 x\n"},
		{name: "truncated clause", in: "4 2"},
		{name: "truncated hints", in: "4 2 0 1"},
		{name: "truncated deletion", in: "4 d 1"},
		{name: "truncated in comment", in: "4 2 0 c\n1 c"},
		{name: "d inside clause", in: "4 2 d 0 1 0\n"},
		{name: "d inside hints", in: "4 2 0 1 d 0\n"},
		{name: "d inside deletion", in: "4 d 1 d 0\n"},
		{name: "negative deletion ID", in: "4 d -1 0\n"},
		{name: "variable out of range", in: "4 268435457 0 1 0\n"},
		{name: "negative variable out of range", in: "4 -268435457 0 1 0\n"},
		{name: "dash without digits", in: "4 - 0 1 0\n"},
		{name: "dash at EOF", in: "4 2 0 1 -"},
		{name: "unexpected byte", in: "4 2 0 1 x 0\n"},
		{name: "NUL byte", in: "4 2 0\x00"},
		{name: "ID beyond 31 bits", in: "3000000000 0 1 2 0\n"},
		{name: "saturated ID", in: "99999999999999999999999 0 1 2 0\n"},
		{name: "hint beyond 31 bits", in: "4 0 1 3000000000 0\n"},
		{name: "negative hint beyond 31 bits", in: "4 0 1 -3000000000 0\n"},
		{name: "deletion beyond 31 bits", in: "4 2 0 1 2 0\n4 d 3000000000 0\n5 0 1 3 4 0\n"},
		{name: "first range error wins", in: "4 d 2200000000 0\n5 0 1 3000000000 0\n"},
		{name: "range error then parse error", in: "3000000000 0 1 2 0\n4 x\n"},
		{name: "literal guard", in: "3 0 1 2 0\n", f: wide},
		{name: "range error before literal guard", in: "3 0 1 3000000000 0\n", f: wide},
		{name: "bad hint", in: "4 2 0 1 3 0\n"},
		{name: "ID order", in: "4 2 0 1 2 0\n4 -2 0 1 3 0\n"},
		{name: "not empty", in: "4 2 0 1 2 0\n"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		f := tc.f
		if f == nil {
			f = chainFormula()
		}
		path := filepath.Join(dir, "p.lrat")
		if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		wantRes, wantErr := parsedCheck(f, []byte(tc.in))
		if (wantErr == nil) != tc.ok {
			t.Fatalf("%s: reference verdict err=%v, want ok=%v", tc.name, wantErr, tc.ok)
		}
		sources := map[string]drat.Source{
			"bytes": drat.BytesSource(tc.in),
			"file":  drat.FileSource(path),
			"path":  pathOnly(path),
			"open":  openOnly{drat.BytesSource(tc.in)},
		}
		for kind, src := range sources {
			res, err := CheckLRAT(f, src, checker.Options{})
			sameOutcome(t, tc.name+"/"+kind, res, err, wantRes, wantErr)
		}
	}
}

// sameOutcome requires two checks to agree on verdict, the rejection's Kind,
// ClauseID and message, and on acceptance the whole Result.
func sameOutcome(t *testing.T, name string, res *checker.Result, err error, wantRes *checker.Result, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		return
	}
	if err != nil {
		var ce, wce *checker.CheckError
		if !errors.As(err, &ce) || !errors.As(wantErr, &wce) {
			t.Errorf("%s: errors are not CheckErrors: %v / %v", name, err, wantErr)
			return
		}
		if ce.Kind != wce.Kind || ce.ClauseID != wce.ClauseID || err.Error() != wantErr.Error() {
			t.Errorf("%s:\n  scan:   %v\n  parsed: %v", name, err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("%s: result %+v, want %+v", name, res, wantRes)
	}
}

// TestCheckLRATGzip: a gzipped proof checks like the plain one, and a
// corrupt gzip stream is a trace rejection either way (its wording may
// differ, since the whole stream is inflated before the scan).
func TestCheckLRATGzip(t *testing.T) {
	f := chainFormula()
	gz := gzipped(t, chainProof)
	wantRes, _ := parsedCheck(f, []byte(chainProof))
	res, err := CheckLRAT(f, drat.BytesSource(gz), checker.Options{})
	sameOutcome(t, "gzip", res, err, wantRes, nil)

	bad := slices.Clone(gz)
	bad[len(bad)-5] ^= 0xff // the CRC-32 trailer
	for name, in := range map[string][]byte{
		"bad CRC":    bad,
		"truncated":  gz[:len(gz)-4],
		"bad header": {0x1f, 0x8b, 0x00},
	} {
		_, err := CheckLRAT(f, drat.BytesSource(in), checker.Options{})
		_, wantErr := parsedCheck(f, in)
		var ce, wce *checker.CheckError
		if !errors.As(err, &ce) || !errors.As(wantErr, &wce) {
			t.Fatalf("%s: want two rejections, got %v / %v", name, err, wantErr)
		}
		if ce.Kind != wce.Kind || ce.ClauseID != wce.ClauseID {
			t.Errorf("%s:\n  scan:   %v\n  parsed: %v", name, err, wantErr)
		}
	}
}

// TestCheckLRATInterrupt: the scan polls Options.Interrupt before its
// first line, and the interrupt's error comes back verbatim.
func TestCheckLRATInterrupt(t *testing.T) {
	stop := errors.New("stop")
	_, err := CheckLRAT(chainFormula(), drat.BytesSource(chainProof),
		checker.Options{Interrupt: func() error { return stop }})
	if err != stop {
		t.Fatalf("err = %v, want the interrupt's error", err)
	}
}

// phpTrace solves the pigeonhole instance with the given number of holes
// and returns its trace.
func phpTrace(t testing.TB, holes int) (*cnf.Formula, *trace.MemoryTrace) {
	t.Helper()
	f := gen.Pigeonhole(holes).F
	s, err := solver.New(f, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt := &trace.MemoryTrace{}
	s.SetTrace(mt)
	if st, err := s.Solve(); err != nil || st != solver.StatusUnsat {
		t.Fatalf("php-%d: status %v, err %v", holes, st, err)
	}
	return f, mt
}

// phpLRAT solves the pigeonhole instance with the given number of holes
// and bridges its trace to LRAT.
func phpLRAT(t testing.TB, holes int) (*cnf.Formula, []byte) {
	t.Helper()
	f, mt := phpTrace(t, holes)
	var buf bytes.Buffer
	if _, err := TraceToLRAT(f, mt, &buf, checker.Options{}); err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

// TestCheckLRATAllocs pins that the scan builds no per-line structures: a
// check allocates the same handful of objects whatever the proof's length
// (the structured parser made about nine per line). The pooled buffers are
// warmed by AllocsPerRun's first call.
func TestCheckLRATAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const maxAllocs = 32
	dir := t.TempDir()
	for _, holes := range []int{5, 7} {
		f, lrat := phpLRAT(t, holes)
		path := filepath.Join(dir, "php.lrat")
		if err := os.WriteFile(path, lrat, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]drat.Source{"bytes": drat.BytesSource(lrat), "file": drat.FileSource(path)} {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := CheckLRAT(f, src, checker.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("php-%d (%d bytes) from %s: %.0f allocs per check", holes, len(lrat), name, allocs)
			if allocs > maxAllocs {
				t.Errorf("php-%d from %s: %.0f allocs per check, want at most %d", holes, name, allocs, maxAllocs)
			}
		}
	}
}

// TestKernelCheckTraceAllocs pins that a trace check builds no per-clause
// structures: tracecheck.Derive hands each clause straight to the pooled
// flat proof. What remains per learned record is the binary decoder's
// Sources slice, which trace.Load keeps; the rest is a fixed handful.
func TestKernelCheckTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const perCheck = 200
	dir := t.TempDir()
	for _, holes := range []int{5, 7} {
		f, mt := phpTrace(t, holes)
		var bin bytes.Buffer
		if err := mt.Replay(trace.NewBinaryWriter(&bin)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "php.trace")
		if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		learned := 0
		for _, ev := range mt.Events {
			if ev.Kind == trace.KindLearned {
				learned++
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := KernelCheckTrace(f, trace.FileSource(path), checker.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("php-%d (%d learned records): %.0f allocs per check", holes, learned, allocs)
		if allocs > float64(learned+perCheck) {
			t.Errorf("php-%d: %.0f allocs per check, want at most %d learned records + %d",
				holes, allocs, learned, perCheck)
		}
	}
}

// TestKernelCheckTraceConcurrent runs trace checks of two formulas from
// several goroutines at once: each must get the result a lone check gets,
// although every check borrows its flat arrays from the shared pool.
func TestKernelCheckTraceConcurrent(t *testing.T) {
	type job struct {
		f    *cnf.Formula
		mt   *trace.MemoryTrace
		want *checker.Result
	}
	var jobs []job
	for _, holes := range []int{4, 5} {
		f, mt := phpTrace(t, holes)
		want, err := KernelCheckTrace(f, mt, checker.Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{f, mt, want})
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				j := jobs[(g+i)%len(jobs)]
				got, err := KernelCheckTrace(j.f, j.mt, checker.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("concurrent check: %+v, want %+v", got, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// lratScanFormula is the fixed target of FuzzLRATScan: chainFormula, so
// short proofs can be accepted as well as rejected.
var lratScanFormula = chainFormula()

// FuzzLRATScan is the parser differential: on arbitrary bytes the scan
// must produce exactly the kernel.Proof that drat.ParseLRAT plus flatten
// produce, or exactly the same error text; and the independent parser of
// the certification pipeline (kernelpipe) must reach the same verdict.
// A corrupt gzip stream only has to be rejected by both, since its wording
// depends on when the stream is read.
func FuzzLRATScan(f *testing.F) {
	for _, s := range []string{
		"3 0 1 2 0\n",
		"3 d 1 0\n4 0 2 3 0\n",
		"c comment\n3 -1 2 0 1 -2 0\n",
		"",
		"3 0 -1 0\n",
		chainProof,
		"3 0 1 3000000000 0\n4 x\n",
	} {
		f.Add([]byte(s))
	}
	f.Add(gzipped(f, chainProof))
	fixtures, err := filepath.Glob("../../testdata/conformance/*.lrat")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no conformance fixtures: %v", err)
	}
	for _, p := range fixtures {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		form := lratScanFormula
		var got, want kernelRun
		data, gotErr := readLRAT(drat.BytesSource(in))
		if gotErr == nil {
			gotErr = got.scan(form, data, nil)
		}
		proof, wantErr := drat.ParseLRAT(bytes.NewReader(in))
		if wantErr == nil {
			wantErr = want.flatten(form, proof)
		}
		gz := bytes.HasPrefix(in, gzipMagic)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("verdicts differ:\n  scan:   %v\n  parsed: %v", gotErr, wantErr)
		case gotErr != nil && !gz && scanMessage(gotErr) != scanMessage(wantErr):
			t.Fatalf("diagnostics differ:\n  scan:   %v\n  parsed: %v", gotErr, wantErr)
		case gotErr == nil && !sameProof(&got, &want):
			t.Fatalf("flat proofs differ:\n  scan:   %+v\n  parsed: %+v", got.kp, want.kp)
		}

		_, kerr := CheckLRAT(form, drat.BytesSource(in), checker.Options{})
		_, perr := kernelpipe.CheckLRAT(form, in, kernelpipe.Options{})
		if (kerr == nil) != (perr == nil) {
			t.Fatalf("kernelpipe disagrees: kernelcheck %v, kernelpipe %v", kerr, perr)
		}
	})
}

// scanMessage is the text a rejection shows, whichever layer made it.
func scanMessage(err error) string {
	var ce *checker.CheckError
	if errors.As(err, &ce) {
		return ce.Error()
	}
	return (&checker.CheckError{Kind: checker.FailTrace, ClauseID: -1, Step: noStep, Err: err}).Error()
}

func sameProof(a, b *kernelRun) bool {
	return slices.Equal(a.kp.Ops, b.kp.Ops) && slices.Equal(a.kp.Lits, b.kp.Lits) &&
		slices.Equal(a.kp.Hints, b.kp.Hints) && slices.Equal(a.kp.Dels, b.kp.Dels) &&
		a.kp.NumAdds == b.kp.NumAdds && a.kp.MaxVar == b.kp.MaxVar &&
		slices.Equal(a.kf.Lits, b.kf.Lits) && slices.Equal(a.kf.Off, b.kf.Off) && a.kf.NumVars == b.kf.NumVars
}
