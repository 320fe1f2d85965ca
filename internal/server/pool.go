package server

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"satcheck"
	"satcheck/internal/incremental"
)

// workerPool runs the queued jobs. Each worker is a goroutine ranging over
// the queue channel; the pool size is the service's concurrency bound — the
// checkers themselves are safe for concurrent use over shared inputs (see
// internal/checker's package docs), so workers need no further coordination.
type workerPool struct {
	queue   *jobQueue
	cache   *resultCache
	metrics *Metrics
	log     *slog.Logger
	wg      sync.WaitGroup

	// beforeRun, when set (tests only), runs before each job's check — used
	// to hold a worker busy deterministically for backpressure tests.
	beforeRun func(*job)
}

// startPool launches n workers draining q.
func startPool(n int, q *jobQueue, cache *resultCache, m *Metrics, log *slog.Logger) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{queue: q, cache: cache, metrics: m, log: log}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for j := range p.queue.ch {
		p.run(j)
	}
}

func (p *workerPool) run(j *job) {
	p.metrics.queueDepth.Add(-1)
	p.metrics.jobsRunning.Add(1)
	defer p.metrics.jobsRunning.Add(-1)

	if p.beforeRun != nil {
		p.beforeRun(j)
	}

	start := time.Now()
	rep, err := satcheck.RunCheck(j.ctx, j.req)
	elapsed := time.Since(start)
	p.metrics.ObserveCheck(elapsed)

	if err != nil {
		p.metrics.jobsFailed.Add(1)
		p.log.Error("check failed", "job", j.id, "method", j.req.Method.String(),
			"elapsed", elapsed, "err", err,
			"deadline", errors.Is(err, context.DeadlineExceeded))
		j.done <- jobResult{err: err}
		return
	}

	if j.req.Method == satcheck.Parallel {
		p.metrics.checkerParallelism.Store(int64(j.req.Options.Parallelism))
	}
	if rep.Valid {
		p.metrics.clausesBuilt.Add(int64(rep.Result.ClausesBuilt))
		p.metrics.resolutionSteps.Add(rep.Result.ResolutionSteps)
		p.metrics.peakMemWords.Store(rep.Result.PeakMemWords)
		p.metrics.peakMemBoundWords.Store(rep.Result.PeakMemBoundWords)
		p.metrics.ObserveResult(rep.Result.PeakMemWords, int64(rep.Result.OOCWindows),
			rep.Result.SpilledClauses, rep.Result.SpilledBytes)
	}

	p.metrics.ObserveFormat(j.req.Format)
	p.metrics.ObserveMethod(j.req.Method)
	resp := responseFromReport(rep, j.opts)
	if j.opts.MUS && rep.Valid {
		resp.MUS = p.extractMUS(j, rep)
	}
	// Both verdicts are deterministic functions of (formula, trace, options):
	// rejections cache as well as proofs.
	p.cache.Put(j.key, resp)
	p.metrics.jobsCompleted.Add(1)
	p.log.Info("check completed", "job", j.id, "method", j.req.Method.String(),
		"verdict", resp.Verdict, "elapsed", elapsed)
	j.done <- jobResult{resp: resp}
}

// extractMUS shrinks a validated check's unsatisfiable core to a minimal
// unsatisfiable subset on an incremental session (mus=1). Extraction problems
// are reported in the response's mus.error field rather than failing the
// check — the verdict itself already stands on the validated proof.
func (p *workerPool) extractMUS(j *job, rep *satcheck.CheckReport) *MUSJSON {
	seed := rep.Result.CoreClauses
	res, err := incremental.ExtractMUSFromCore(j.req.Formula, seed, incremental.Options{})
	if err != nil {
		p.log.Error("mus extraction failed", "job", j.id, "err", err)
		return &MUSJSON{Error: err.Error()}
	}
	p.metrics.musExtractions.Add(1)
	p.log.Info("mus extracted", "job", j.id, "seed", len(res.SeedCore),
		"mus", len(res.ClauseIDs), "solver_calls", res.Stat.SolverCalls)
	return &MUSJSON{
		ClauseIDs:   res.ClauseIDs,
		Size:        len(res.ClauseIDs),
		SeedSize:    len(res.SeedCore),
		SolverCalls: res.Stat.SolverCalls,
	}
}

// Wait blocks until every worker has exited (the queue must be closed
// first).
func (p *workerPool) Wait() { p.wg.Wait() }
