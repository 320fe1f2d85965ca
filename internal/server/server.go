package server

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"satcheck/internal/certify"
	"satcheck/internal/metrics"
)

// Config sizes the daemon. The zero value is usable: New fills in the
// defaults below.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8347").
	Addr string
	// Workers is the checker concurrency (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the admission queue; beyond it requests get 429
	// (default 64).
	QueueSize int
	// CacheEntries bounds the result cache; 0 disables caching
	// (default 256 via DefaultCacheEntries; set to -1 to disable).
	CacheEntries int
	// MaxBodyBytes bounds one request body, formula + trace
	// (default 256 MiB).
	MaxBodyBytes int64
	// DefaultTimeout applies to jobs that do not ask for one (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-job timeout_ms parameter (default 5m).
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint sent with 429/503 (default 1s).
	RetryAfter time.Duration
	// TempDir holds trace spools and checker spill files (default
	// os.TempDir()).
	TempDir string
	// Logger receives per-job structured logs (default: discard).
	Logger *slog.Logger
	// CertifySigner signs policy=dual verdict bundles (default: an
	// ephemeral ed25519 keypair generated at startup; its public key
	// travels in every bundle).
	CertifySigner certify.Signer
}

// Defaults used by New for zero Config fields.
const (
	DefaultQueueSize    = 64
	DefaultCacheEntries = 256
	DefaultMaxBodyBytes = 256 << 20
)

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":8347"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = DefaultCacheEntries
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Server is the zcheckd proof-checking service: HTTP handlers in front of a
// bounded queue, a worker pool over the satcheck facade, and a
// content-addressed result cache.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	queue   *jobQueue
	pool    *workerPool
	log     *slog.Logger

	mux      *http.ServeMux
	httpSrv  *http.Server
	listener net.Listener

	// certSem bounds concurrent policy=dual certifications at Workers;
	// certSigner signs their bundles (nil only if ephemeral keygen failed,
	// in which case dual requests answer 500).
	certSem    chan struct{}
	certSigner certify.Signer

	draining atomic.Bool
	nextJob  atomic.Uint64
}

// New builds a Server and starts its worker pool. Callers either mount
// Handler() themselves (tests, embedding) or call ListenAndServe; both paths
// must end with Shutdown.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		cache:   newResultCache(cfg.CacheEntries),
		queue:   newJobQueue(cfg.QueueSize),
		log:     cfg.Logger,
	}
	s.metrics.queueLen = s.queue.Depth
	s.pool = startPool(cfg.Workers, s.queue, s.cache, s.metrics, s.log)
	s.certSem = make(chan struct{}, cfg.Workers)
	s.certSigner = cfg.CertifySigner
	if s.certSigner == nil {
		signer, err := certify.NewEd25519Signer()
		if err != nil {
			s.log.Error("ephemeral certify signer generation failed", "err", err)
		} else {
			s.certSigner = signer
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", metrics.Handler(s.metrics.WritePrometheus))
	return s
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the live counters (read-only use intended).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Listen binds the configured address and reports the bound address —
// split from Serve so callers (and tests) can learn the port chosen for
// ":0" before traffic starts.
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	return ln.Addr(), nil
}

// Serve runs the HTTP server over the Listen listener until Shutdown. Like
// net/http, it returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve() error {
	return s.httpSrv.Serve(s.listener)
}

// Close force-stops the server without draining: the listener and every
// active connection are closed immediately and the queue stops admitting.
// In-flight clients see connection errors, not answers — this is the
// "shard crashed" primitive the cluster chaos harness kills shards with;
// production shutdown is Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Close()
	}
	s.queue.Close()
	return err
}

// Shutdown drains gracefully: stop admitting jobs (new checks get 503),
// wait for in-flight handlers and queued jobs up to ctx's deadline, then
// stop the workers. Safe to call without Listen/Serve (handler-only use).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		// http.Server.Shutdown waits for in-flight handlers, each of which
		// is blocked on its job's completion — so this wait covers the queue.
		err = s.httpSrv.Shutdown(ctx)
	}
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
