package checker

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"satcheck/internal/cnf"
	"satcheck/internal/resolve"
	"satcheck/internal/trace"
)

// Parallel validates an UNSAT trace with the hybrid strategy's build set on
// a worker pool. The paper's clause-ID convention (every resolve source has
// a smaller ID than the clause it derives) makes the derivation a DAG whose
// independent chains can be verified concurrently; the checkers' sequential
// replay leaves that parallelism on the table.
//
// The sequential phases are the hybrid checker's, shared code and shared
// diagnostics: a structural scan validates the trace shape, and the backward
// mark pass computes exactly the clauses the empty-clause derivation can
// reach plus each one's use count. Two things differ. First, the source
// lists of the learned clauses are sharded into a flat in-memory index
// during the scan (one slice per clause, one backing array) instead of
// spilled to disk, so workers index the trace without ever contending on the
// reader. Second, the marked clauses are then built by Options.Parallelism
// workers scheduled by the dependency DAG: every marked clause carries an
// atomic pending-source count, completing a clause decrements its
// dependents' counts, and a clause whose count hits zero becomes ready —
// kept worker-local when possible for cache locality, handed to a shared
// queue otherwise. Use counts are decremented atomically as builds consume
// their sources, evicting each clause from the deterministic 4-bytes/literal
// memory model the moment its last use completes (breadth-first's
// discipline), with the concurrent high-water mark maintained by
// compare-and-swap. Each worker resolves a clause's whole chain in one call
// of its own resolve.Resolver and copies finished clauses into a per-worker
// bump-allocated arena, so the hot path performs no per-step allocation and
// built clauses never become individual GC objects.
//
// Failure diagnostics are byte-identical to Hybrid's. A failed chain does
// not abort the run: the failure is recorded, the clause's dependents are
// skipped (they release their source claims but build nothing), and clauses
// with IDs above the smallest recorded failure stop being built. When the
// DAG drains, the failure with the smallest clause ID is returned — provably
// the same first failure the sequential hybrid scan reports, because every
// clause with a smaller ID builds identically in both. The one exception is
// FailMemoryLimit under Options.MemLimitWords: the concurrent peak is
// schedule-dependent, so *which* clause trips a tight memory budget can
// differ from Hybrid's sequential order (the verdict still cannot: a run
// that fits the budget on every schedule is bounded by
// Result.PeakMemBoundWords, which is deterministic).
func Parallel(f *cnf.Formula, src trace.Source, opts Options) (*Result, error) {
	p := &parChecker{
		originals: normalizeOriginals(f),
		nOrig:     len(f.Clauses),
		res:       &Result{},
	}
	seq := memModel{limit: opts.MemLimitWords}
	intr := poller{fn: opts.Interrupt}
	if err := seq.add(int64(f.NumLiterals())); err != nil {
		return nil, err
	}

	// Pre-size the sharded source index with one cheap counting pass so the
	// structural scan below appends into exactly-sized arrays; repeated
	// growth of the flat index otherwise dominates the checker's allocation
	// profile (and with it, GC sweep time shared across the workers).
	preSrc, preLearned := int64(0), 0
	if err := scanTrace(src, &intr, func(ev trace.Event) error {
		if ev.Kind == trace.KindLearned {
			preLearned++
			preSrc += int64(len(ev.Sources))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	p.flat = make([]int32, 0, preSrc)
	p.srcOff = make([]int64, 0, preLearned+1)

	// Phase 1 (sequential, shared with Hybrid): validate trace structure and
	// shard the learned-clause source lists into the in-memory index.
	p.srcOff = append(p.srcOff, 0)
	var err error
	p.numL, p.finalID, p.level0, err = structuralScan(src, p.nOrig, &intr, &seq,
		func(ev trace.Event) error {
			if ev.ID > math.MaxInt32 {
				return failf(FailTrace, ev.ID, -1, "parallel checker supports clause IDs up to %d", math.MaxInt32)
			}
			for _, s := range ev.Sources {
				p.flat = append(p.flat, int32(s))
			}
			p.srcOff = append(p.srcOff, int64(len(p.flat)))
			return seq.add(int64(len(ev.Sources)) + 1)
		})
	if err != nil {
		return nil, err
	}
	p.res.LearnedTotal = p.numL

	// Phase 2 (sequential, shared with Hybrid): the backward mark pass.
	var srcBuf []int
	readSources := func(i int) ([]int, error) {
		seg := p.flat[p.srcOff[i]:p.srcOff[i+1]]
		srcBuf = srcBuf[:0]
		for _, s := range seg {
			srcBuf = append(srcBuf, int(s))
		}
		return srcBuf, nil
	}
	var counts []int32
	p.marked, counts, p.numMarked, p.usedOrig, err = markReachable(
		p.nOrig, p.numL, p.finalID, p.level0, readSources, &seq, &intr)
	if err != nil {
		return nil, err
	}

	l0 := newLevel0Table(f.NumVars)
	for _, rec := range p.level0 {
		if err := l0.add(rec.Var, rec.Value, rec.Ante); err != nil {
			return nil, err
		}
	}

	// Scheduling state: per-clause use counts (eviction), pending-source
	// counts (readiness), status, and the reverse-dependency index workers
	// walk to wake dependents.
	p.lits = make([]cnf.Clause, p.numL)
	p.remaining = make([]atomic.Int32, p.numL)
	p.pending = make([]atomic.Int32, p.numL)
	p.status = make([]atomic.Uint32, p.numL)
	for i, c := range counts {
		if c != 0 {
			p.remaining[i].Store(c)
		}
	}
	if err := seq.add(3 * int64(p.numL)); err != nil {
		return nil, err
	}
	if err := p.buildReverseIndex(&seq); err != nil {
		return nil, err
	}

	// Everything from here on is accounted concurrently. setupWords is the
	// deterministic sequential floor; adding every built clause's literals
	// (with no eviction credited) yields the schedule-independent bound.
	p.mem.limit = seq.limit
	p.mem.cur.Store(seq.cur)
	p.mem.peak.Store(seq.peak)
	setupWords := seq.cur

	totalBuiltWords := int64(0)
	if p.numMarked > 0 {
		workers := opts.Parallelism
		if workers <= 0 {
			// Default to the hardware parallelism actually available: running
			// more workers than either GOMAXPROCS or physical CPUs only adds
			// preemption and GC-sweep contention without any extra throughput.
			workers = runtime.GOMAXPROCS(0)
			if n := runtime.NumCPU(); n < workers {
				workers = n
			}
		}
		if workers > p.numMarked {
			workers = p.numMarked
		}
		p.ready = make(chan int32, p.numMarked)
		p.stop = make(chan struct{})
		p.abortCh = make(chan struct{})
		p.minFailID.Store(math.MaxInt64)
		ws := make([]*parWorker, workers)
		for i := range ws {
			ws[i] = &parWorker{p: p, r: newResolver(p.originals)}
			ws[i].intr.fn = opts.Interrupt
		}
		// Seed the initial ready set round-robin across the workers' local
		// stacks before any goroutine starts, so startup costs no shared-queue
		// traffic and every worker begins with its own slice of the frontier.
		seeded := 0
		for li := 0; li < p.numL; li++ {
			if p.markedBit(li) && p.pending[li].Load() == 0 {
				w := ws[seeded%workers]
				w.local = append(w.local, int32(li))
				seeded++
			}
		}
		p.wg.Add(workers)
		for _, w := range ws {
			go w.run()
		}
		p.wg.Wait()
		for _, w := range ws {
			p.res.ClausesBuilt += int(w.built)
			p.res.ResolutionSteps += w.steps
			totalBuiltWords += w.builtWords
		}
		if p.firstFail != nil {
			return nil, p.firstFail
		}
		if p.abortErr != nil {
			return nil, p.abortErr
		}
	}

	// Final stage: the sequential empty-clause derivation, exactly as in
	// Hybrid (every worker has exited, so the arrays are quiescent).
	final, err := p.getClause(p.finalID)
	if err != nil {
		return nil, &CheckError{Kind: FailBadSourceRef, ClauseID: p.finalID, Step: -1,
			Detail: "final conflicting clause", Err: err}
	}
	// No copies: arena storage is immutable and survives eviction (consume
	// is memory-model accounting), exactly as in the depth-first checker's
	// final stage.
	p.consume(p.finalID)
	getAnte := func(id int) (cnf.Clause, error) {
		cl, err := p.getClause(id)
		if err != nil {
			return nil, err
		}
		p.consume(id)
		return cl, nil
	}
	if err := finalStage(final, p.finalID, l0, getAnte, func() { p.res.ResolutionSteps++ }); err != nil {
		return nil, err
	}

	p.res.PeakMemWords = p.mem.peak.Load()
	p.res.PeakMemBoundWords = setupWords + totalBuiltWords
	p.res.CoreClauses, p.res.CoreVars = coreFromUsed(f, p.usedOrig)
	return p.res, nil
}

// Learned-clause status values (p.status). A clause is "settled" once its
// status is no longer parPending; parSkipped covers both failed chains and
// chains skipped because a source failed — dependents treat them alike.
const (
	parPending uint32 = iota
	parBuilt
	parSkipped
)

type parChecker struct {
	originals []cnf.Clause
	nOrig     int
	numL      int
	finalID   int
	level0    []trace.Level0Record

	// The sharded trace: learned clause li's sources are
	// flat[srcOff[li]:srcOff[li+1]].
	flat   []int32
	srcOff []int64

	marked    []uint64 // bitmap over learned clauses (mark pass)
	usedOrig  []uint64 // bitmap over original clauses touched by the proof
	numMarked int

	lits      []cnf.Clause    // built literals, by learned index
	remaining []atomic.Int32  // BF-style use counts; 0 = evicted
	pending   []atomic.Int32  // unbuilt marked sources; 0 = ready
	status    []atomic.Uint32 // parPending / parBuilt / parSkipped
	revOff    []int64         // reverse-dependency index: clause li's
	revDst    []int32         // dependents are revDst[revOff[li]:revOff[li+1]]

	ready   chan int32    // clauses whose pending count hit zero
	stop    chan struct{} // closed when every marked clause is settled
	abortCh chan struct{} // closed on the first interrupt
	wg      sync.WaitGroup
	done    atomic.Int64 // settled marked clauses

	minFailID   atomic.Int64 // smallest failing clause ID; gates later builds
	failMu      sync.Mutex
	firstFail   error
	firstFailID int

	abortOnce sync.Once
	abortErr  error

	mem atomicMemModel
	res *Result
}

func (p *parChecker) markedBit(li int) bool {
	return p.marked[li/64]&(1<<uint(li%64)) != 0
}

func (p *parChecker) sourcesOf(li int32) []int32 {
	return p.flat[p.srcOff[li]:p.srcOff[li+1]]
}

func (p *parChecker) revDeps(li int32) []int32 {
	return p.revDst[p.revOff[li]:p.revOff[li+1]]
}

// buildReverseIndex computes each marked clause's pending-source count and
// the reverse edges (source -> dependent) the workers follow on completion.
// Duplicate source occurrences get duplicate edges, so a clause's pending
// count drains exactly when all its source occurrences have settled.
func (p *parChecker) buildReverseIndex(seq *memModel) error {
	revCnt := make([]int32, p.numL)
	totalRev := int64(0)
	for li := 0; li < p.numL; li++ {
		if !p.markedBit(li) {
			continue
		}
		pend := int32(0)
		for _, s := range p.sourcesOf(int32(li)) {
			if int(s) >= p.nOrig {
				revCnt[int(s)-p.nOrig]++
				pend++
				totalRev++
			}
		}
		p.pending[li].Store(pend)
	}
	p.revOff = make([]int64, p.numL+1)
	for i := 0; i < p.numL; i++ {
		p.revOff[i+1] = p.revOff[i] + int64(revCnt[i])
	}
	p.revDst = make([]int32, totalRev)
	cursor := revCnt // reuse as per-source fill cursor
	for i := range cursor {
		cursor[i] = 0
	}
	for li := 0; li < p.numL; li++ {
		if !p.markedBit(li) {
			continue
		}
		for _, s := range p.sourcesOf(int32(li)) {
			if int(s) >= p.nOrig {
				si := int(s) - p.nOrig
				p.revDst[p.revOff[si]+int64(cursor[si])] = int32(li)
				cursor[si]++
			}
		}
	}
	return seq.add(totalRev + 2*int64(p.numL+1))
}

// getClause fetches clause id for a build step or the final stage: original
// clauses from the formula, learned clauses from the built set. The error
// text matches the hybrid checker's exactly — diagnostics are part of the
// equivalence contract.
func (p *parChecker) getClause(id int) (cnf.Clause, error) {
	if id < 0 {
		return nil, fmt.Errorf("negative clause ID %d", id)
	}
	if id < p.nOrig {
		return p.originals[id], nil
	}
	li := id - p.nOrig
	if li < p.numL && p.status[li].Load() == parBuilt && p.remaining[li].Load() > 0 {
		return p.lits[li], nil
	}
	return nil, fmt.Errorf("learned clause %d is not live (unmarked, consumed, or forward reference)", id)
}

// consume registers one use of clause id; the use that exhausts the count
// evicts the clause from the memory model. Callers only consume clauses they
// have finished reading, so remaining can hit zero only after every reader
// is done — eviction is pure accounting, never a dangling read.
func (p *parChecker) consume(id int) {
	if id < p.nOrig {
		return
	}
	li := id - p.nOrig
	if li >= p.numL {
		return
	}
	if p.remaining[li].Add(-1) == 0 {
		p.mem.sub(int64(len(p.lits[li])))
	}
}

func (p *parChecker) recordFailure(id int, err error) {
	for {
		cur := p.minFailID.Load()
		if int64(id) >= cur || p.minFailID.CompareAndSwap(cur, int64(id)) {
			break
		}
	}
	p.failMu.Lock()
	if p.firstFail == nil || id < p.firstFailID {
		p.firstFail, p.firstFailID = err, id
	}
	p.failMu.Unlock()
}

func (p *parChecker) abort(err error) {
	p.abortOnce.Do(func() {
		p.abortErr = err
		close(p.abortCh)
	})
}

// parWorker is one build goroutine: a local LIFO of ready clauses (depth-
// first locality: a clause's first-woken dependent usually resolves against
// it immediately), a chain resolver, and a literal arena for finished
// clauses. Statistics stay worker-local until the pool joins.
type parWorker struct {
	p          *parChecker
	local      []int32
	r          *resolve.Resolver
	chain      []cnf.Clause // the clause being built's sources (buildChain)
	arena      litArena
	intr       poller
	steps      int64
	built      int64
	builtWords int64
}

func (w *parWorker) run() {
	defer w.p.wg.Done()
	for {
		li, ok := w.take()
		if !ok {
			return
		}
		if !w.process(li) {
			return
		}
	}
}

// take pops the local stack, falling back to the shared queue. The stop
// channel can only close when no clause is queued anywhere (a queued clause
// is unsettled by definition), so no work is ever abandoned.
func (w *parWorker) take() (int32, bool) {
	if n := len(w.local); n > 0 {
		li := w.local[n-1]
		w.local = w.local[:n-1]
		return li, true
	}
	select {
	case li := <-w.p.ready:
		return li, true
	case <-w.p.stop:
		return 0, false
	case <-w.p.abortCh:
		return 0, false
	}
}

// process settles one marked clause: build it (unless a source failed or a
// smaller-ID failure already owns the diagnostic), release its source
// claims, wake dependents, and close the stop channel when it is the last.
// It returns false when the run was interrupted.
func (w *parWorker) process(li int32) bool {
	p := w.p
	if err := w.intr.poll(); err != nil {
		p.abort(err)
		return false
	}
	id := p.nOrig + int(li)
	built := false
	if w.shouldBuild(li, id) {
		if err := w.build(li, id); err != nil {
			p.recordFailure(id, err)
		} else {
			built = true
		}
	}
	if built {
		p.status[li].Store(parBuilt)
	} else {
		p.status[li].Store(parSkipped)
	}
	// Built, failed, or skipped, this clause's claims on its sources are
	// settled now: a failed chain must release its use counts like a
	// successful one consumes them, or the evicted-at-last-use accounting
	// leaks for the rest of the run.
	for _, s := range p.sourcesOf(li) {
		p.consume(int(s))
	}
	for _, d := range p.revDeps(li) {
		if p.pending[d].Add(-1) == 0 {
			w.enqueue(d)
		}
	}
	if p.done.Add(1) == int64(p.numMarked) {
		close(p.stop)
	}
	return true
}

func (w *parWorker) shouldBuild(li int32, id int) bool {
	p := w.p
	if int64(id) > p.minFailID.Load() {
		// A failure with a smaller clause ID is already recorded; hybrid
		// would have stopped before reaching this clause, so skip it (its
		// own failure, if any, could never be the reported one — the
		// recorded minimum only decreases).
		return false
	}
	for _, s := range p.sourcesOf(li) {
		if int(s) >= p.nOrig && p.status[int(s)-p.nOrig].Load() != parBuilt {
			return false // poisoned: a source failed or was skipped
		}
	}
	return true
}

// build replays clause id's resolution chain. Sources are read without
// copies: a source's remaining count includes this clause's uses and is only
// decremented after the chain settles, so the storage cannot be evicted
// under the reader.
func (w *parWorker) build(li int32, id int) error {
	p := w.p
	srcs := p.sourcesOf(li)
	cur, err := buildChain(w.r, &w.chain, id, srcs, p.getClause)
	if err != nil {
		return err
	}
	w.steps += int64(len(srcs) - 1)
	lits := w.arena.clone(cur)
	p.lits[li] = lits
	w.built++
	w.builtWords += int64(len(lits))
	return p.mem.add(int64(len(lits)))
}

// enqueue places a newly-ready clause. It stays on this worker's local stack
// — it usually resolves against the clause just built, still hot in cache,
// and the fast path then touches no shared state at all — except when the
// shared queue has run dry while this worker holds other local work, in
// which case it is handed over so idle workers never starve behind a busy
// one's stack. Each clause is enqueued exactly once, so the buffered queue
// (capacity numMarked) can never block a send.
func (w *parWorker) enqueue(d int32) {
	if len(w.local) > 0 && len(w.p.ready) == 0 {
		w.p.ready <- d
		return
	}
	w.local = append(w.local, d)
}

// litArena bump-allocates clause storage in large blocks, so the thousands
// of built clauses a proof produces cost one GC object per block instead of
// one each. Blocks are append-only and never reused: an evicted clause's
// storage stays valid (eviction is memory-model accounting), which is what
// lets the final stage and late readers run without copies.
type litArena struct {
	block []cnf.Lit
}

const arenaBlockLits = 1 << 14

func (a *litArena) clone(c cnf.Clause) cnf.Clause {
	n := len(c)
	if n == 0 {
		return cnf.Clause{}
	}
	if n > len(a.block) {
		size := arenaBlockLits
		if n > size {
			size = n
		}
		a.block = make([]cnf.Lit, size)
	}
	dst := cnf.Clause(a.block[:n:n])
	a.block = a.block[n:]
	copy(dst, c)
	return dst
}

// atomicMemModel is the deterministic memory accounting of memModel with a
// CAS-maintained concurrent high-water mark, for the phase where workers
// add and evict clauses in parallel.
type atomicMemModel struct {
	cur, peak atomic.Int64
	limit     int64
}

func (m *atomicMemModel) add(words int64) error {
	c := m.cur.Add(words)
	for {
		p := m.peak.Load()
		if c <= p || m.peak.CompareAndSwap(p, c) {
			break
		}
	}
	if m.limit > 0 && c > m.limit {
		return failf(FailMemoryLimit, trace.NoClause, -1,
			"memory model exceeded %d words (at %d)", m.limit, c)
	}
	return nil
}

func (m *atomicMemModel) sub(words int64) { m.cur.Add(-words) }
