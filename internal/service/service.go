// Package service is titand's compile service: the paper's §7 view of
// compilation as a database problem, grown into a long-lived daemon. A
// cold CLI pays the whole pipeline on every invocation; workloads that
// fire thousands of near-identical compile requests (autotuners,
// NeuroVectorizer-style search loops) want a server that compiles each
// distinct unit once and serves the rest from a content-addressed cache.
//
// The daemon exposes:
//
//	POST /compile        — C source + options → IL, Titan assembly, the
//	                       pass report, and optionally a simulation result
//	POST /compile/batch  — a whole translation set in one round-trip,
//	                       sharing decoded catalogs across the units
//	POST /catalogs       — upload a §7 procedure catalog; held under its
//	                       content fingerprint
//	GET  /catalogs       — list the catalogs held
//	GET  /metrics        — aggregated pass.Report, cache/queue/cluster
//	                       counters, latency summary
//	GET  /healthz        — liveness (is the process up)
//	GET  /readyz         — readiness (false while draining or while the
//	                       peer ring is bootstrapping)
//
// Compiles run on a bounded worker pool behind a bounded queue (overload
// answers 503 with a Retry-After, not collapse), and identical in-flight
// requests are deduplicated singleflight-style. Everything the daemon
// keeps — compile artifacts, tuned schedule plans and catalogs — is one
// content-addressed store (Cache, over three kinds) under one byte
// budget: artifacts and plans share an LRU, catalogs are pinned against
// the same budget, and artifacts have an optional disk tier so restarts
// stay warm. An optional per-client token bucket keeps one greedy client
// from starving the admission queue for everyone else.
//
// In cluster mode (see internal/cluster) N daemons share the store's
// namespace: every key has an owner node on a consistent-hash ring, a
// local miss consults the peer tier (GET {prefix}{key}) before
// recomputing, and completed work is written through to its owner (PUT
// {prefix}{key}) — so a unit compiled or tuned anywhere is a one-hop hit
// everywhere. Peer failures degrade to local work; they never fail a
// request.
//
// Shutdown drains: in-flight compiles finish and publish to the cache
// before the daemon exits.
package service

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/tune"
)

// Bounds on what one request may carry: a request body (a source, a
// batch, a catalog or an artifact) and the translation units of one POST
// /compile/batch.
const (
	maxBodyBytes  = 8 << 20
	maxBatchUnits = 256
)

// Config sizes the daemon. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers bounds concurrent compiles (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds compiles admitted beyond the running ones;
	// past Workers+QueueDepth, /compile answers 503 (default 64).
	QueueDepth int
	// Timeout bounds how long one request waits for its compile
	// (default 60s). The compile itself keeps running to warm the cache.
	Timeout time.Duration
	// CacheBytes is the memory budget for everything titand stores:
	// artifacts, tuned plans and catalogs (default 64 MiB, negative =
	// unbounded).
	CacheBytes int64
	// CacheDir, when set, adds a disk tier under this directory so a
	// restarted daemon stays warm.
	CacheDir string
	// Cluster, when non-nil, joins this node to a peer ring: every key
	// the store holds gains a cluster-wide owner, and a local miss
	// consults the peer tier before recomputing. The caller
	// retains ownership (titand closes it at shutdown).
	Cluster *cluster.Cluster
	// RatePerSec > 0 enables per-client admission rate limiting: each
	// client ID (X-Client-ID header, else the peer host) gets a token
	// bucket refilled at this rate. A batch of N units costs N tokens.
	RatePerSec float64
	// RateBurst is the bucket capacity (default 2×RatePerSec, min 1).
	RateBurst int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RatePerSec)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

// Server is the compile service. Create with New, mount Handler on an
// http.Server, and call Drain during shutdown.
type Server struct {
	cfg       Config
	cache     *Cache
	schedules store[*tune.Result]
	catalogs  store[*catalogEntry]
	metrics   *metrics
	flight    flightGroup
	cluster   *cluster.Cluster // nil in single-node mode
	limiter   *rateLimiter     // nil when rate limiting is off

	queueSem  chan struct{} // admission: Workers+QueueDepth slots
	workerSem chan struct{} // execution: Workers slots
	inflight  sync.WaitGroup
	draining  atomic.Bool

	// compileHook, when set (tests), runs on the worker goroutine with
	// a worker slot held, before the pipeline starts.
	compileHook func(key string)
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		schedules: store[*tune.Result]{cache, planKind},
		catalogs:  store[*catalogEntry]{cache, catalogKind},
		metrics:   newMetrics(),
		cluster:   cfg.Cluster,
		queueSem:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workerSem: make(chan struct{}, cfg.Workers),
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, float64(cfg.RateBurst))
	}
	return s, nil
}

// Handler returns the daemon's route table: the client API plus the
// peer tier cluster members use among themselves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/compile/batch", s.handleBatch)
	mux.HandleFunc("/catalogs", s.handleCatalogs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// Peer tier: owner-side storage for every kind the store holds.
	for _, k := range []*kind{artifactKind, planKind, catalogKind} {
		mux.HandleFunc("GET "+k.prefix+"{key}", s.handleGet(k))
		mux.HandleFunc("PUT "+k.prefix+"{key}", s.handlePut(k))
	}
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK,
		s.metrics.snapshot(s.cache.Stats(), s.cluster.Snapshot()))
}

// HealthResponse is the GET /healthz and /readyz body.
type HealthResponse struct {
	Status   string `json:"status"` // ok | ready | draining | bootstrapping
	InFlight int64  `json:"in_flight"`
	UptimeNS int64  `json:"uptime_ns"`
}

// handleHealthz is pure liveness: if the process can answer, it is
// alive — even while draining. Orchestrators use this to decide whether
// to restart the process, so reporting unhealthy during a graceful
// drain would turn every deploy into a kill.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(CacheStats{}, nil)
	writeJSON(w, http.StatusOK,
		HealthResponse{Status: "ok", InFlight: snap.Compiles.InFlight, UptimeNS: snap.UptimeNS})
}

// handleReadyz is routability: 503 while draining (stop sending new
// work; existing work finishes) and while the peer ring is still
// bootstrapping (the node would compile everything locally and miss the
// remote tier). Load balancers and cluster peers route around nodes
// that answer not-ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(CacheStats{}, nil)
	h := HealthResponse{Status: "ready", InFlight: snap.Compiles.InFlight, UptimeNS: snap.UptimeNS}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case !s.cluster.Bootstrapped():
		h.Status = "bootstrapping"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Drain marks the server draining (readiness goes false so the cluster
// routes around it) and waits for every tracked compile — including
// compiles whose requester already timed out, and write-through pushes
// to peer owners — to finish, or for ctx to expire. The caller shuts
// the http.Server down first (which waits for in-flight handlers), then
// drains the compile pool.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
