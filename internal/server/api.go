// Package server implements zcheckd, the long-lived proof-checking service:
// an HTTP/JSON front end (stdlib net/http only) over the satcheck facade
// with a bounded job queue, a worker pool, a content-addressed result cache,
// and hand-rolled Prometheus metrics. It is the service shape the paper's
// trusted-checker workflow takes in an EDA pipeline, where the same proofs
// are verified repeatedly by machines rather than once by a human at a
// terminal.
//
// Wire protocol (see docs/SERVICE.md for the full contract):
//
//	POST /v1/check?method=df&...   multipart body: "formula" (DIMACS) + "trace"
//	GET  /healthz                  liveness + queue snapshot
//	GET  /metrics                  Prometheus text format
package server

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"satcheck"
	"satcheck/internal/proofstat"
)

// Verdict values of CheckResponse.Verdict.
const (
	// VerdictValid: the trace proves the formula unsatisfiable.
	VerdictValid = "valid"
	// VerdictRejected: checking completed and the proof is invalid; the
	// Failure field says why. This is a 200-level outcome — the service did
	// its job; the *solver* is buggy.
	VerdictRejected = "rejected"
)

// CheckResponse is the JSON body answering POST /v1/check.
type CheckResponse struct {
	Verdict   string       `json:"verdict"` // "valid" | "rejected"
	Method    string       `json:"method"`
	Format    string       `json:"format"` // "native" | "drat" | "lrat" | "er" | "tc"
	Cached    bool         `json:"cached,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Result    *ResultJSON  `json:"result,omitempty"`
	Failure   *FailureJSON `json:"failure,omitempty"`
	Stats     *StatsJSON   `json:"proof_stats,omitempty"`
	MUS       *MUSJSON     `json:"mus,omitempty"` // only with mus=1 on valid proofs
}

// MUSJSON reports the checker-validated minimal unsatisfiable subset computed
// when mus=1: the proof's core shrunk until dropping any clause makes the
// rest satisfiable, with every intermediate answer independently validated.
type MUSJSON struct {
	ClauseIDs   []int  `json:"clause_ids"`
	Size        int    `json:"size"`
	SeedSize    int    `json:"seed_size"`    // checker-core size the shrink started from
	SolverCalls int    `json:"solver_calls"` // incremental solve calls spent
	Error       string `json:"error,omitempty"`
}

// ResultJSON mirrors satcheck.CheckResult on the wire.
type ResultJSON struct {
	LearnedTotal    int     `json:"learned_total"`
	ClausesBuilt    int     `json:"clauses_built"`
	BuiltFraction   float64 `json:"built_fraction"`
	ResolutionSteps int64   `json:"resolution_steps"`
	PeakMemWords    int64   `json:"peak_mem_words"`
	// PeakMemBoundWords is the parallel checker's schedule-independent
	// memory bound, or the out-of-core checker's budget ceiling (0 for the
	// sequential in-memory checkers).
	PeakMemBoundWords int64 `json:"peak_mem_bound_words,omitempty"`
	CoreSize          int   `json:"core_size,omitempty"`
	CoreVars          int   `json:"core_vars,omitempty"`
	CoreClauses       []int `json:"core_clauses,omitempty"` // only with core=1
	// OOCWindows, SpilledClauses, and SpilledBytes describe a method=ooc
	// run: how many windows the proof was shifted through and how much
	// boundary-crossing clause data went to the spill index.
	OOCWindows     int   `json:"ooc_windows,omitempty"`
	SpilledClauses int64 `json:"spilled_clauses,omitempty"`
	SpilledBytes   int64 `json:"spilled_bytes,omitempty"`
}

// FailureJSON mirrors satcheck.CheckError on the wire.
type FailureJSON struct {
	Kind     string `json:"kind"` // FailureKind string, e.g. "invalid-resolution"
	ClauseID int    `json:"clause_id"`
	Step     int    `json:"step"`
	Detail   string `json:"detail"`
}

// StatsJSON mirrors proofstat.Stats on the wire (sent when analyze=1).
type StatsJSON struct {
	NumOriginal    int     `json:"num_original"`
	NumLearned     int     `json:"num_learned"`
	NumDeleted     int     `json:"num_deleted,omitempty"`
	NeededLearned  int     `json:"needed_learned"`
	NeededOriginal int     `json:"needed_original"`
	Depth          int     `json:"depth"`
	AvgChain       float64 `json:"avg_chain"`
	ChainMax       int     `json:"chain_max"`
	Level0         int     `json:"level0"`
	TraceInts      int64   `json:"trace_ints"`
	// Extensions/ExtDepthMax describe extended-resolution proofs (format=er):
	// extension-variable definitions and their maximum nesting depth.
	Extensions  int `json:"extensions,omitempty"`
	ExtDepthMax int `json:"ext_depth_max,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec accompanies 429/503 backpressure answers, mirroring the
	// Retry-After header for clients that only read bodies.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// HealthResponse is the JSON body of GET /healthz.
type HealthResponse struct {
	Status     string `json:"status"` // "ok" | "draining"
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	Workers    int    `json:"workers"`
	CacheSize  int    `json:"cache_size"`
}

// JobOptions are the per-job knobs, parsed from the /v1/check query string.
type JobOptions struct {
	// Method is the checker traversal (for clausal proofs: the checking
	// direction — see satcheck.CheckRequest.Method).
	Method satcheck.Method
	// Format is the proof encoding of the "trace" part: native resolution
	// trace (default), DRAT, LRAT, ER (the BDD backend's
	// extended-resolution proofs), or TraceCheck.
	Format satcheck.ProofFormat
	// MemLimitMB bounds the checker's deterministic memory model; 0 = server
	// default.
	MemLimitMB int64
	// MemBudgetBytes is the out-of-core checker's window-shifting budget
	// (method=ooc; 0 = the checker's 256MiB default). Parsed from
	// mem_budget, which accepts byte-size strings like "64MiB".
	MemBudgetBytes int64
	// Timeout bounds the job's wall clock; 0 = server default. The server
	// clamps it to its configured maximum.
	Timeout time.Duration
	// Analyze also computes proof-graph statistics on valid proofs.
	Analyze bool
	// IncludeCore returns the full core clause ID list of a check that
	// produces a core, not just its size.
	IncludeCore bool
	// Parallelism is the parallel checker's worker count; 0 picks a server
	// default. The server caps it at its own worker-pool size so one job
	// cannot oversubscribe the machine.
	Parallelism int
	// MUS additionally shrinks a valid native proof's unsatisfiable core to a
	// minimal unsatisfiable subset on an incremental session, validating every
	// intermediate answer. Requires a core-producing method (df, hybrid,
	// parallel) over a native trace.
	MUS bool
}

// ParseJobOptions reads the supported query parameters: method, format,
// mem_limit_mb, mem_budget, timeout_ms, analyze, core, parallelism, mus.
// Unknown parameters are ignored (forward compatibility); malformed values
// are errors.
func ParseJobOptions(q url.Values) (JobOptions, error) {
	var o JobOptions
	var err error
	if o.Format, err = satcheck.ParseProofFormat(q.Get("format")); err != nil {
		return o, err
	}
	switch m := q.Get("method"); {
	case m == "" && o.Format == satcheck.FormatER:
		// An unset method follows the format: ER proofs have only the
		// bridge check, so format=er means method=bdd (keeping the
		// per-method metric honest); everything else defaults to df.
		o.Method = satcheck.BDD
	case m == "":
		o.Method = satcheck.DepthFirst
	default:
		if o.Method, err = satcheck.ParseMethod(m); err != nil {
			return o, err
		}
		// method=bdd checks ER proofs; an unset format follows along.
		if o.Method == satcheck.BDD && q.Get("format") == "" {
			o.Format = satcheck.FormatER
		}
	}
	if err := satcheck.CheckablePair(o.Format, o.Method); err != nil {
		return o, err
	}
	if o.MemLimitMB, err = parseInt(q, "mem_limit_mb"); err != nil {
		return o, err
	}
	if s := q.Get("mem_budget"); s != "" {
		if o.MemBudgetBytes, err = satcheck.ParseByteSize(s); err != nil {
			return o, fmt.Errorf("bad mem_budget=%q: %v", s, err)
		}
	}
	ms, err := parseInt(q, "timeout_ms")
	if err != nil {
		return o, err
	}
	o.Timeout = time.Duration(ms) * time.Millisecond
	if o.Analyze, err = parseBool(q, "analyze"); err != nil {
		return o, err
	}
	if o.IncludeCore, err = parseBool(q, "core"); err != nil {
		return o, err
	}
	par, err := parseInt(q, "parallelism")
	if err != nil {
		return o, err
	}
	o.Parallelism = int(par)
	if o.MUS, err = parseBool(q, "mus"); err != nil {
		return o, err
	}
	if o.MUS {
		if o.Format != satcheck.FormatNative {
			return o, fmt.Errorf("mus=1 requires a native trace (format=%s given)", o.Format)
		}
		if o.Method == satcheck.BreadthFirst {
			return o, fmt.Errorf("mus=1 requires a core-producing method (df, hybrid, or parallel)")
		}
	}
	return o, nil
}

func parseInt(q url.Values, key string) (int64, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s=%q (want a non-negative integer)", key, s)
	}
	return v, nil
}

func parseBool(q url.Values, key string) (bool, error) {
	switch q.Get(key) {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("bad %s=%q (want 0/1/true/false)", key, q.Get(key))
	}
}

// Query renders the options back into query parameters — the client half of
// ParseJobOptions, shared so zcheck and the tests cannot drift from the
// server.
func (o JobOptions) Query() url.Values {
	q := url.Values{}
	q.Set("method", o.Method.Name())
	if o.Format != satcheck.FormatNative {
		q.Set("format", o.Format.String())
	}
	if o.MemLimitMB > 0 {
		q.Set("mem_limit_mb", strconv.FormatInt(o.MemLimitMB, 10))
	}
	if o.MemBudgetBytes > 0 {
		q.Set("mem_budget", strconv.FormatInt(o.MemBudgetBytes, 10))
	}
	if o.Timeout > 0 {
		q.Set("timeout_ms", strconv.FormatInt(int64(o.Timeout/time.Millisecond), 10))
	}
	if o.Analyze {
		q.Set("analyze", "1")
	}
	if o.IncludeCore {
		q.Set("core", "1")
	}
	if o.Parallelism > 0 {
		q.Set("parallelism", strconv.Itoa(o.Parallelism))
	}
	if o.MUS {
		q.Set("mus", "1")
	}
	return q
}

// canonical is the deterministic option fingerprint folded into the cache
// key. Everything that changes the answer's content must appear here.
func (o JobOptions) canonical() string {
	// Parallelism is part of the key: verdicts and cores are identical at
	// every worker count, but the reported concurrent memory peak is
	// schedule-dependent, so answers at different counts may not be shared.
	// MemBudgetBytes is part of the key: verdicts and cores are
	// budget-independent, but the reported window count, spill volume, and
	// peak bound are not, so answers at different budgets are not shared.
	return fmt.Sprintf("method=%d format=%d mem=%d budget=%d analyze=%t core=%t par=%d mus=%t",
		int(o.Method), int(o.Format), o.MemLimitMB, o.MemBudgetBytes, o.Analyze, o.IncludeCore, o.Parallelism, o.MUS)
}

// responseFromReport converts a facade CheckReport into the wire shape.
func responseFromReport(rep *satcheck.CheckReport, o JobOptions) *CheckResponse {
	resp := &CheckResponse{
		Method:    rep.Method.String(),
		Format:    o.Format.String(),
		ElapsedMS: float64(rep.Elapsed) / float64(time.Millisecond),
	}
	if rep.Valid {
		resp.Verdict = VerdictValid
		r := rep.Result
		resp.Result = &ResultJSON{
			LearnedTotal:      r.LearnedTotal,
			ClausesBuilt:      r.ClausesBuilt,
			BuiltFraction:     r.BuiltFraction(),
			ResolutionSteps:   r.ResolutionSteps,
			PeakMemWords:      r.PeakMemWords,
			PeakMemBoundWords: r.PeakMemBoundWords,
			CoreSize:          len(r.CoreClauses),
			CoreVars:          r.CoreVars,
			OOCWindows:        r.OOCWindows,
			SpilledClauses:    r.SpilledClauses,
			SpilledBytes:      r.SpilledBytes,
		}
		if o.IncludeCore {
			resp.Result.CoreClauses = r.CoreClauses
		}
		if rep.Stats != nil {
			resp.Stats = statsJSON(rep.Stats)
		}
	} else {
		resp.Verdict = VerdictRejected
		resp.Failure = &FailureJSON{
			Kind:     rep.Failure.Kind.String(),
			ClauseID: rep.Failure.ClauseID,
			Step:     rep.Failure.Step,
			Detail:   rep.Failure.Error(),
		}
	}
	return resp
}

func statsJSON(s *proofstat.Stats) *StatsJSON {
	return &StatsJSON{
		NumOriginal:    s.NumOriginal,
		NumLearned:     s.NumLearned,
		NumDeleted:     s.NumDeleted,
		NeededLearned:  s.NeededLearned,
		NeededOriginal: s.NeededOriginal,
		Depth:          s.Depth,
		AvgChain:       s.AvgChain(),
		ChainMax:       s.ChainMax,
		Level0:         s.Level0,
		TraceInts:      s.TraceInts,
		Extensions:     s.Extensions,
		ExtDepthMax:    s.ExtDepthMax,
	}
}
