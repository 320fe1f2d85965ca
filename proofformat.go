package satcheck

import (
	"fmt"
	"io"

	"satcheck/internal/drat"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/ooc"
	"satcheck/internal/solver"
)

// ProofFormat identifies the encoding of a proof handed to RunCheck (and,
// through it, to the zcheckd service and the zverify/zcheck CLIs).
type ProofFormat int

// The supported proof encodings.
const (
	// FormatNative is the solver's resolution trace (antecedent lists per
	// learned clause) — the paper's format, checked by the four resolution
	// checkers.
	FormatNative ProofFormat = iota
	// FormatDRAT is a clausal DRUP/DRAT proof (additions and deletions, no
	// antecedents), ASCII or binary, checked by reverse unit propagation
	// with RAT fallback.
	FormatDRAT
	// FormatLRAT is a clausal proof with propagation hints, checked by a
	// hint-following verifier that performs no search.
	FormatLRAT
	// FormatER is an extended-resolution proof as emitted by the BDD
	// backend (extension-variable definitions plus RUP lemmas with hints),
	// checked by bridging to LRAT and running the hint-following verifier.
	FormatER
)

// String names the format as accepted by ParseProofFormat.
func (pf ProofFormat) String() string {
	switch pf {
	case FormatNative:
		return "native"
	case FormatDRAT:
		return "drat"
	case FormatLRAT:
		return "lrat"
	case FormatER:
		return "er"
	default:
		return fmt.Sprintf("format(%d)", int(pf))
	}
}

// ParseProofFormat parses a format name ("native", "drat", "lrat", "er").
func ParseProofFormat(s string) (ProofFormat, error) {
	switch s {
	case "", "native", "trace":
		return FormatNative, nil
	case "drat", "drup":
		return FormatDRAT, nil
	case "lrat":
		return FormatLRAT, nil
	case "er":
		return FormatER, nil
	default:
		return FormatNative, fmt.Errorf("satcheck: unknown proof format %q (want native, drat, lrat, or er)", s)
	}
}

// ProofSource supplies the bytes of a clausal (DRAT/LRAT) proof. Sources
// must support repeated Open calls; gzip and the DRAT binary encoding are
// auto-detected on read.
type ProofSource = drat.Source

// ProofFileSource reads a clausal proof from a file (".gz" handled
// transparently, by content sniffing rather than extension).
func ProofFileSource(path string) ProofSource { return drat.FileSource(path) }

// ProofBytesSource serves a clausal proof from memory.
func ProofBytesSource(b []byte) ProofSource { return drat.BytesSource(b) }

// DRATWriter streams a DRUP/DRAT proof; it satisfies the solver's ProofSink,
// so `solver.SetProofSink(NewDRATWriter(f))` records a clausal proof during
// the solve (see SolveWithDRUP for the facade-level helper).
type DRATWriter = drat.Writer

// NewDRATWriter returns an ASCII DRUP/DRAT proof writer.
func NewDRATWriter(w io.Writer) *DRATWriter { return drat.NewWriter(w) }

// NewBinaryDRATWriter returns a binary-encoded DRAT proof writer.
func NewBinaryDRATWriter(w io.Writer) *DRATWriter { return drat.NewBinaryWriter(w) }

// CheckDRAT validates a DRUP/DRAT proof that f is unsatisfiable. The method
// selects the check: BreadthFirst is the streaming, no-core strategy in both
// worlds, so it checks forward; the core-producing DepthFirst, Hybrid, and
// Parallel check backward, whose marked originals are an unsatisfiable core
// exactly like the native checkers'. Kernel forward-checks, records the
// propagation hints, and verifies them in the trusted kernel, whose hint
// closure is the returned core; OOC does the same out of core. Like Check,
// a nil error proves the claim and a *CheckError describes the first
// invalid step.
func CheckDRAT(f *Formula, src ProofSource, m Method, opts CheckOptions) (*CheckResult, error) {
	switch m {
	case BreadthFirst:
		return drat.Check(f, src, drat.Forward, opts)
	case DepthFirst, Hybrid, Parallel:
		return drat.Check(f, src, drat.Backward, opts)
	case Kernel:
		return kernelcheck.KernelCheckDRAT(f, src, opts)
	case OOC:
		return ooc.CheckDRAT(f, src, opts)
	}
	return nil, fmt.Errorf("satcheck: unknown check method %d", int(m))
}

// CheckLRAT validates an LRAT proof in the trusted kernel by following its
// hints — no propagation search, making it the cheapest and most
// independent check in the package. The result carries the kernel's
// hint-closure unsat core.
func CheckLRAT(f *Formula, src ProofSource, opts CheckOptions) (*CheckResult, error) {
	return kernelcheck.CheckLRAT(f, src, opts)
}

// DRATToLRAT forward-checks a DRAT proof and writes the accepted derivation
// as LRAT with propagation hints; the emitted proof is re-verified by the
// independent LRAT checker before anything is written to w.
func DRATToLRAT(f *Formula, src ProofSource, w io.Writer, opts CheckOptions) (*CheckResult, error) {
	return kernelcheck.DRATToLRAT(f, src, w, opts)
}

// TraceToLRAT converts a native resolution trace to a verified LRAT proof.
func TraceToLRAT(f *Formula, src TraceSource, w io.Writer, opts CheckOptions) (*CheckResult, error) {
	return kernelcheck.TraceToLRAT(f, src, w, opts)
}

// SolveWithDRUP decides f while streaming a DRUP proof of an UNSAT answer
// to sink (in addition to any trace sink configured via SolveToSink — the
// two records are independent). The proof is only meaningful when the
// returned status is StatusUnsat.
func SolveWithDRUP(f *Formula, opts SolverOptions, proof *DRATWriter) (Status, SolverStats, error) {
	s, err := solver.New(f, opts)
	if err != nil {
		return StatusUnknown, SolverStats{}, err
	}
	s.SetProofSink(proof)
	st, err := s.Solve()
	return st, s.Stats(), err
}

// ctxProofSource aborts clausal proof reads once the context is done; the
// byte-level analogue of ctxSource.
type ctxProofSource struct {
	ctx ctxDoner
	src ProofSource
}

// ctxDoner is the subset of context.Context the wrappers need.
type ctxDoner interface{ Err() error }

// ProofPath exposes the underlying file path when the wrapped source is
// file-backed, letting the out-of-core checker mmap it and the kernel's
// LRAT check read it with one os.ReadFile (the context is still honored:
// both poll Interrupt, which RunCheck wires to the same context).
func (c ctxProofSource) ProofPath() string {
	if fs, ok := c.src.(drat.FileSource); ok {
		return string(fs)
	}
	return ""
}

// Open implements ProofSource.
func (c ctxProofSource) Open() (io.ReadCloser, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	rc, err := c.src.Open()
	if err != nil {
		return nil, err
	}
	return &ctxByteReader{ctx: c.ctx, rc: rc}, nil
}

type ctxByteReader struct {
	ctx ctxDoner
	rc  io.ReadCloser
	n   int
}

func (r *ctxByteReader) Read(p []byte) (int, error) {
	// Reads arrive in bufio-sized chunks, so polling every call is cheap.
	if r.n++; r.n%16 == 0 {
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
	}
	return r.rc.Read(p)
}

func (r *ctxByteReader) Close() error { return r.rc.Close() }
