// Package cluster turns zcheckd into a sharded proof-checking service: a
// front router that content-addresses every submission into a disk-backed
// store (internal/store), consistent-hash-routes it to one of N worker
// shards (each a full internal/server instance), and layers an async job
// API beside the existing synchronous path.
//
// The shape follows the paper's deployment argument to its conclusion: if
// an independent checker is what makes solver results trustworthy, the
// checker must scale past one machine without weakening its guarantees.
// Every verdict is still produced by an unmodified zcheckd worker; the
// router only moves bytes, so the trust story is unchanged — a corrupt
// blob, a dead shard, or a router restart can delay a verdict or force a
// re-check, but can never manufacture one.
//
// Wire protocol (docs/CLUSTER.md has the full contract):
//
//	POST /v1/check            synchronous, exactly the single-zcheckd API,
//	                          proxied to the owning shard with failover
//	POST /v1/jobs             async submit -> {"id": ...}; same body and
//	                          query as /v1/check plus class=, webhook=
//	GET  /v1/jobs/{id}        poll job state; terminal answers embed the
//	                          shard's CheckResponse verbatim
//	POST /cluster/join        external shard registration (zcheckd -join)
//	POST /cluster/leave       graceful departure before a shard drains
//	GET  /healthz             router + per-shard health
//	GET  /metrics             Prometheus, per-shard labels
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"satcheck/internal/certify"
	"satcheck/internal/server"
	"satcheck/internal/store"
)

// Config sizes the router. The zero value is usable; New fills defaults.
type Config struct {
	// Addr is the router's listen address (default ":8346" — one below the
	// shard default so both fit on a dev box).
	Addr string
	// StoreDir roots the content-addressed store (required).
	StoreDir string
	// StoreQuotaBytes is the blob LRU quota; 0 = unlimited.
	StoreQuotaBytes int64
	// Shards is how many local worker shards to spawn (default 0: join-only
	// cluster that waits for -join registrations).
	Shards int
	// ShardConfig is the template for locally spawned shards; Addr is
	// overridden with a loopback port per shard.
	ShardConfig server.Config
	// Replicas is the ring's virtual points per shard (default 64).
	Replicas int
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// DispatchWorkers is the async dispatcher's concurrency (default 4).
	DispatchWorkers int
	// MaxAttempts bounds async dispatch attempts per job (default 5).
	MaxAttempts int
	// RetryBase is the first async retry delay; it doubles per attempt with
	// jitter (default 250ms).
	RetryBase time.Duration
	// DispatchTimeout bounds one shard round trip (default 10m; per-job
	// deadlines are enforced shard-side via timeout_ms).
	DispatchTimeout time.Duration
	// MaxBodyBytes bounds one submission body (default 256 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429/503 (default 1s).
	RetryAfter time.Duration
	// TenantRate and TenantBurst configure the per-tenant token buckets
	// (tokens/second and bucket size); rate 0 disables quotas.
	TenantRate  float64
	TenantBurst float64
	// CertifySigner signs policy=dual verdict bundles merged at the router
	// (default: an ephemeral ed25519 keypair generated at startup).
	CertifySigner certify.Signer
	// Logger receives structured router logs (default: discard).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":8346"
	}
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DispatchWorkers <= 0 {
		c.DispatchWorkers = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 10
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// shardState pairs a shard with its ring membership (membership changes
// only on probe transitions, so a flapping shard is visible in the
// rebalance counter).
type shardState struct {
	sh     *Shard
	inRing bool
}

// Router is the cluster front end.
type Router struct {
	cfg     Config
	store   *store.Store
	ring    *Ring
	metrics *Metrics
	quotas  *tenantBuckets
	queue   *dispatchQueue
	log     *slog.Logger

	mu       sync.Mutex
	shards   map[string]*shardState
	shardSeq int

	probeClient    *http.Client
	dispatchClient *http.Client

	mux      *http.ServeMux
	httpSrv  *http.Server
	listener net.Listener

	// certSigner signs policy=dual bundles merged at the router (nil only
	// if ephemeral keygen failed; dual requests then answer 500).
	certSigner certify.Signer

	draining    atomic.Bool
	jobsRunning atomic.Int64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	workerWG  sync.WaitGroup
}

// New builds a Router: opens the store, spawns cfg.Shards local worker
// shards, re-queues every non-terminal persisted job, and starts the
// dispatcher and the health prober.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if cfg.StoreDir == "" {
		return nil, errors.New("cluster: Config.StoreDir is required")
	}
	st, err := store.Open(cfg.StoreDir, cfg.StoreQuotaBytes)
	if err != nil {
		return nil, err
	}
	ring := NewRing(cfg.Replicas)
	rt := &Router{
		cfg:            cfg,
		store:          st,
		ring:           ring,
		metrics:        newMetrics(ring, st),
		quotas:         newTenantBuckets(cfg.TenantRate, cfg.TenantBurst),
		queue:          newDispatchQueue(),
		log:            cfg.Logger,
		shards:         make(map[string]*shardState),
		probeClient:    defaultProbeClient(cfg.ProbeTimeout),
		dispatchClient: &http.Client{Timeout: cfg.DispatchTimeout},
		stopProbe:      make(chan struct{}),
	}
	rt.certSigner = cfg.CertifySigner
	if rt.certSigner == nil {
		signer, err := certify.NewEd25519Signer()
		if err != nil {
			rt.log.Error("ephemeral certify signer generation failed", "err", err)
		} else {
			rt.certSigner = signer
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		if _, err := rt.AddLocalShard(); err != nil {
			rt.stopShardsLocked()
			return nil, err
		}
	}
	if err := rt.recoverJobs(); err != nil {
		return nil, err
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/check", rt.handleSyncCheck)
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmitJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobStatus)
	rt.mux.HandleFunc("POST /cluster/join", rt.handleJoin)
	rt.mux.HandleFunc("POST /cluster/leave", rt.handleLeave)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	for i := 0; i < cfg.DispatchWorkers; i++ {
		rt.workerWG.Add(1)
		go rt.dispatchWorker()
	}
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler (httptest and embedding).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the router's counters.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Store exposes the underlying content-addressed store (read-mostly use).
func (rt *Router) Store() *store.Store { return rt.store }

// Ring exposes the hash ring (tests and the healthz handler).
func (rt *Router) Ring() *Ring { return rt.ring }

// Listen binds the configured address, reporting the bound address.
func (rt *Router) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return nil, err
	}
	rt.listener = ln
	rt.httpSrv = &http.Server{Handler: rt.mux}
	return ln.Addr(), nil
}

// Serve runs the HTTP server until Shutdown; returns http.ErrServerClosed
// after a clean shutdown, like net/http.
func (rt *Router) Serve() error { return rt.httpSrv.Serve(rt.listener) }

// AddLocalShard spawns one embedded worker shard, adds it to the ring, and
// returns its ID. The chaos harness uses it to "restart" a killed shard.
func (rt *Router) AddLocalShard() (string, error) {
	rt.mu.Lock()
	rt.shardSeq++
	id := fmt.Sprintf("shard-%d", rt.shardSeq)
	rt.mu.Unlock()

	shCfg := rt.cfg.ShardConfig
	if shCfg.Logger == nil {
		shCfg.Logger = rt.log.With("shard", id)
	}
	sh, err := SpawnLocal(id, shCfg)
	if err != nil {
		return "", err
	}
	rt.mu.Lock()
	rt.shards[id] = &shardState{sh: sh, inRing: true}
	rt.mu.Unlock()
	rt.ring.Add(id)
	rt.metrics.SetShardHealth(id, true)
	rt.log.Info("shard spawned", "shard", id, "url", sh.URL)
	return id, nil
}

// JoinShard registers an external shard by URL; it enters the ring when a
// probe first finds it healthy (one is fired immediately). A re-join with
// the same ID replaces the URL.
func (rt *Router) JoinShard(id, shardURL string) error {
	u, err := url.Parse(shardURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: bad shard url %q", shardURL)
	}
	sh := Join(id, shardURL)
	rt.mu.Lock()
	if prev, ok := rt.shards[id]; ok && prev.inRing {
		rt.ring.Remove(id)
	}
	rt.shards[id] = &shardState{sh: sh}
	rt.mu.Unlock()
	rt.metrics.SetShardHealth(id, false)
	rt.probeOne(id)
	rt.log.Info("shard joined", "shard", id, "url", shardURL)
	return nil
}

// RemoveShard takes a shard out of the ring and forgets it (the leave
// half of -join; also used by operators to decommission a worker).
func (rt *Router) RemoveShard(id string) {
	rt.mu.Lock()
	st, ok := rt.shards[id]
	if ok {
		if st.inRing {
			rt.ring.Remove(id)
		}
		delete(rt.shards, id)
	}
	rt.mu.Unlock()
	if ok {
		rt.metrics.DropShard(id)
		rt.log.Info("shard removed", "shard", id)
	}
}

// DrainShard gracefully drains a local shard (the SIGTERM path): it stops
// admitting, finishes its queue, and leaves the ring at the next probe
// sweep — in-flight work completes, new work fails over to other owners.
func (rt *Router) DrainShard(ctx context.Context, id string) error {
	rt.mu.Lock()
	st, ok := rt.shards[id]
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	err := st.sh.Stop(ctx)
	rt.probeOne(id) // take it off the ring now, not a probe period later
	return err
}

// KillShard force-stops a local shard without draining — the chaos
// harness's crash primitive. The shard stays registered (and unhealthy)
// until RemoveShard, exactly like a crashed external process.
func (rt *Router) KillShard(id string) error {
	rt.mu.Lock()
	st, ok := rt.shards[id]
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	err := st.sh.Kill()
	rt.probeOne(id)
	return err
}

// ShardIDs lists the registered shards, sorted.
func (rt *Router) ShardIDs() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.shards))
	for id := range rt.shards {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// shard looks up one registered shard.
func (rt *Router) shard(id string) (*Shard, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.shards[id]
	if !ok {
		return nil, false
	}
	return st.sh, true
}

// probeLoop sweeps shard health every ProbeInterval.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.shards))
	for id := range rt.shards {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			rt.probeOne(id)
		}(id)
	}
	wg.Wait()
}

// probeOne probes a single shard and applies the ring transition.
func (rt *Router) probeOne(id string) {
	rt.mu.Lock()
	st, ok := rt.shards[id]
	rt.mu.Unlock()
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	healthy := st.sh.Probe(ctx, rt.probeClient)
	cancel()
	st.sh.healthy.Store(healthy)

	rt.mu.Lock()
	// Re-check registration: the shard may have been removed mid-probe.
	if cur, ok := rt.shards[id]; !ok || cur != st {
		rt.mu.Unlock()
		return
	}
	changed := false
	if healthy && !st.inRing {
		st.inRing = true
		changed = true
		rt.ring.Add(id)
	} else if !healthy && st.inRing {
		st.inRing = false
		changed = true
		rt.ring.Remove(id)
	}
	rt.mu.Unlock()
	if changed {
		rt.metrics.SetShardHealth(id, healthy)
		rt.log.Info("shard health transition", "shard", id, "healthy", healthy,
			"ring_size", rt.ring.Len())
	}
}

// recoverJobs re-queues every non-terminal persisted job at startup — the
// "a router restart loses nothing" half of the async contract. Blobs of
// recovered jobs are re-pinned; a job whose blobs were evicted while the
// router was down fails cleanly instead of dangling.
func (rt *Router) recoverJobs() error {
	jobs, err := rt.store.ListJobs()
	if err != nil {
		return err
	}
	for _, rec := range jobs {
		if rec.Terminal() {
			continue
		}
		if !rt.store.Has(rec.FormulaHash) || !rt.store.Has(rec.ProofHash) {
			rec.State = store.StateFailed
			rec.Error = "payload evicted from store before dispatch; resubmit"
			rt.store.PutJob(rec)
			rt.metrics.ObserveJobState(store.StateFailed, rec.Class)
			continue
		}
		rt.store.Pin(rec.FormulaHash)
		rt.store.Pin(rec.ProofHash)
		if rec.State != store.StateQueued {
			rec.State = store.StateQueued
			rt.store.PutJob(rec)
		}
		rt.queue.push(rec.ID, rec.Class)
		rt.metrics.jobsRecovered.Add(1)
	}
	return nil
}

// stopShardsLocked drains every local shard (construction failure path).
func (rt *Router) stopShardsLocked() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, st := range rt.shards {
		if st.sh.Local() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			st.sh.Stop(ctx)
			cancel()
		}
	}
}

// Shutdown drains the router: new submissions get 503, in-flight handlers
// finish, queued async jobs run to a terminal state (up to ctx's
// deadline), then the dispatcher, the prober, and every local shard stop.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	var err error
	if rt.httpSrv != nil {
		err = rt.httpSrv.Shutdown(ctx)
	}

	// Wait for the async queue to go idle (jobs reach terminal states), or
	// for the deadline; either way the workers then stop.
	idle := func() bool { return rt.queue.empty() && rt.jobsRunning.Load() == 0 }
	for !idle() {
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		case <-time.After(20 * time.Millisecond):
			continue
		}
		break
	}
	rt.queue.close()
	rt.workerWG.Wait()
	close(rt.stopProbe)
	rt.probeWG.Wait()

	// Drain local shards with whatever deadline budget remains.
	rt.mu.Lock()
	locals := make([]*Shard, 0, len(rt.shards))
	for _, st := range rt.shards {
		if st.sh.Local() {
			locals = append(locals, st.sh)
		}
	}
	rt.mu.Unlock()
	for _, sh := range locals {
		if serr := sh.Stop(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (rt *Router) badRequest(w http.ResponseWriter, msg string) {
	rt.metrics.badRequests.Add(1)
	rt.writeJSON(w, http.StatusBadRequest, &server.ErrorResponse{Error: msg})
}

func (rt *Router) backpressure(w http.ResponseWriter, code int, msg string) {
	sec := int(rt.cfg.RetryAfter.Seconds())
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	rt.writeJSON(w, code, &server.ErrorResponse{Error: msg, RetryAfterSec: sec})
}

// ingest spools the submission's multipart parts into the content store,
// pinned. On success both blobs are pinned once; callers own the unpin.
type ingested struct {
	formulaHash store.Hash
	proofHash   store.Hash
	bytes       int64
	haveFormula bool
	haveProof   bool
}

func (rt *Router) unpin(in *ingested) {
	if in.haveFormula {
		rt.store.Unpin(in.formulaHash)
	}
	if in.haveProof {
		rt.store.Unpin(in.proofHash)
	}
}

func (rt *Router) ingest(r *http.Request, w http.ResponseWriter) (*ingested, error) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, fmt.Errorf("expected multipart/form-data with parts \"formula\" and \"trace\": %w", err)
	}
	in := &ingested{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			rt.unpin(in)
			return nil, fmt.Errorf("reading multipart body: %w", err)
		}
		switch part.FormName() {
		case "formula":
			if in.haveFormula {
				rt.unpin(in)
				return nil, errors.New("duplicate \"formula\" part")
			}
			h, n, err := rt.store.PutPinned(part)
			if err != nil {
				rt.unpin(in)
				return nil, err
			}
			in.formulaHash, in.haveFormula = h, true
			in.bytes += n
		case "trace", "proof":
			if in.haveProof {
				rt.unpin(in)
				return nil, errors.New("duplicate \"trace\" part")
			}
			h, n, err := rt.store.PutPinned(part)
			if err != nil {
				rt.unpin(in)
				return nil, err
			}
			in.proofHash, in.haveProof = h, true
			in.bytes += n
		default:
			io.Copy(io.Discard, part)
		}
	}
	if !in.haveFormula || !in.haveProof {
		rt.unpin(in)
		return nil, errors.New("missing \"formula\" or \"trace\" part")
	}
	rt.metrics.bytesIngested.Add(in.bytes)
	return in, nil
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if rt.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	rt.mu.Lock()
	shards := make([]ShardHealth, 0, len(rt.shards))
	for id, st := range rt.shards {
		shards = append(shards, ShardHealth{
			ID:      id,
			URL:     st.sh.URL,
			Healthy: st.sh.Healthy(),
			OnRing:  st.inRing,
			Local:   st.sh.Local(),
		})
	}
	rt.mu.Unlock()
	sortShardHealth(shards)
	rt.writeJSON(w, code, &RouterHealth{
		Status:      status,
		RingSize:    rt.ring.Len(),
		Shards:      shards,
		JobsQueued:  rt.queue.depth(),
		JobsRunning: int(rt.jobsRunning.Load()),
		StoreBlobs:  rt.store.Stats().Blobs,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.WritePrometheus(w)
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		rt.badRequest(w, "bad join request: "+err.Error())
		return
	}
	if req.ID == "" || req.URL == "" {
		rt.badRequest(w, "join request needs id and url")
		return
	}
	if err := rt.JoinShard(req.ID, req.URL); err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	rt.writeJSON(w, http.StatusOK, &JoinResponse{OK: true, RingSize: rt.ring.Len()})
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		rt.badRequest(w, "bad leave request: "+err.Error())
		return
	}
	if req.ID == "" {
		rt.badRequest(w, "leave request needs id")
		return
	}
	rt.RemoveShard(req.ID)
	rt.writeJSON(w, http.StatusOK, &JoinResponse{OK: true, RingSize: rt.ring.Len()})
}

// dispatchRequest builds one shard-bound POST whose multipart body streams
// straight out of the content store. The pipe writer re-verifies both
// blobs' hashes as they stream; a corruption aborts the request with
// store.ErrCorrupt (never a half-trusted body).
func (rt *Router) dispatchRequest(ctx context.Context, sh *Shard, rawQuery string, in *ingested) (*http.Response, error) {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		err := rt.writeStoreParts(mw, in)
		if cerr := mw.Close(); err == nil {
			err = cerr
		}
		pw.CloseWithError(err)
	}()
	u := sh.URL + "/v1/check"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, pr)
	if err != nil {
		pr.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	return rt.dispatchClient.Do(req)
}

func (rt *Router) writeStoreParts(mw *multipart.Writer, in *ingested) error {
	for _, p := range []struct {
		field string
		hash  store.Hash
	}{
		{"formula", in.formulaHash},
		{"trace", in.proofHash},
	} {
		src, _, err := rt.store.Open(p.hash)
		if err != nil {
			return err
		}
		w, err := mw.CreateFormFile(p.field, p.hash.String())
		if err == nil {
			_, err = io.Copy(w, src)
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// Errors distinguished by the dispatch path.
var (
	errNoShard = errors.New("cluster: no healthy shard available")
)

// dispatchResult is one completed shard round trip.
type dispatchResult struct {
	status int
	body   []byte
	shard  string
}

// dispatch routes one stored payload to its ring owners in preference
// order, failing over on transport errors and shard backpressure. It
// returns the first definitive shard answer (2xx or a non-backpressure
// 4xx/5xx), errNoShard when every owner is unavailable, or a
// store.ErrCorrupt-wrapping error when the payload itself failed its
// read-back verification (no failover can fix that).
func (rt *Router) dispatch(ctx context.Context, key store.Hash, rawQuery string, in *ingested) (*dispatchResult, error) {
	owners := rt.ring.Owners(key, 0)
	tried := 0
	for _, id := range owners {
		sh, ok := rt.shard(id)
		if !ok || !sh.Healthy() {
			continue
		}
		if tried > 0 {
			rt.metrics.failovers.Add(1)
		}
		tried++
		resp, err := rt.dispatchRequest(ctx, sh, rawQuery, in)
		if err != nil {
			if errors.Is(err, store.ErrCorrupt) {
				rt.metrics.corruptRestarts.Add(1)
				return nil, fmt.Errorf("stored payload failed verification: %w", store.ErrCorrupt)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rt.log.Warn("shard dispatch failed", "shard", id, "err", err)
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes))
		resp.Body.Close()
		if rerr != nil {
			rt.log.Warn("shard response truncated", "shard", id, "err", rerr)
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadGateway:
			// Shard backpressure or mid-drain: the next owner can serve.
			continue
		default:
			return &dispatchResult{status: resp.StatusCode, body: body, shard: id}, nil
		}
	}
	return nil, errNoShard
}
