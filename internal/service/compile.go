package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/driver"
	"repro/internal/inline"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/tune"
)

// CompileRequest is the POST /compile body: one C translation unit plus
// the paper's compiler options, optionally followed by a simulation run.
type CompileRequest struct {
	Source  string         `json:"source"`
	Options CompileOptions `json:"options"`
	// Processors > 0 simulates the compiled program on that many Titan
	// processors (1..4, §2) and includes the run result in the response
	// and the cache entry.
	Processors int `json:"processors,omitempty"`
	// Entry names the simulation entry function (default main).
	Entry string `json:"entry,omitempty"`
}

// CompileOptions is the JSON mirror of driver.Options. Pointers mark the
// fields whose zero value is not the server default: omitting opt_level
// means -O1, omitting strength_reduce means on (titancc's defaults).
type CompileOptions struct {
	OptLevel       *int  `json:"opt_level,omitempty"`
	StrengthReduce *bool `json:"strength_reduce,omitempty"`
	Inline         bool  `json:"inline,omitempty"`
	Vectorize      bool  `json:"vectorize,omitempty"`
	Parallelize    bool  `json:"parallelize,omitempty"`
	ListParallel   bool  `json:"list_parallel,omitempty"`
	NoAlias        bool  `json:"noalias,omitempty"`
	VL             int   `json:"vl,omitempty"`
	// Tune autotunes per-loop schedules before compiling: a bounded grid
	// of legal candidates is measured on the fast engine and the
	// cycle-minimal set wins. Tuned schedule sets are cached by the
	// compile's base content fingerprint (source + options, not the run
	// spec), so repeat tuned requests — even at a different processor
	// count, even on a different cluster node — reuse the plan without
	// re-measuring.
	Tune bool `json:"tune,omitempty"`
	// Catalogs lists registry ids (content fingerprints from POST
	// /catalogs) to attach for inline expansion.
	Catalogs []string `json:"catalogs,omitempty"`
}

func (o CompileOptions) driverOptions(cats []*inline.Catalog) driver.Options {
	opts := driver.Options{
		OptLevel:       1,
		StrengthReduce: true,
		Inline:         o.Inline,
		Vectorize:      o.Vectorize,
		Parallelize:    o.Parallelize,
		ListParallel:   o.ListParallel,
		NoAlias:        o.NoAlias,
		VL:             o.VL,
		Catalogs:       cats,
	}
	if o.OptLevel != nil {
		opts.OptLevel = *o.OptLevel
	}
	if o.StrengthReduce != nil {
		opts.StrengthReduce = *o.StrengthReduce
	}
	return opts
}

// RunResult is a simulation outcome in JSON form: the simulator's Result
// plus what only the host knows. HostNanos is the engine's wall time on
// the serving host — telemetry for sizing a deployment's simulation
// budget, not part of the model (stamped in by the computing request).
type RunResult struct {
	titan.Result
	MFLOPS     float64 `json:"mflops"`
	Processors int     `json:"processors"`
	HostNanos  int64   `json:"host_nanos"`
}

// MarshalJSON omits procs from the run of a program that never forked.
func (r RunResult) MarshalJSON() ([]byte, error) {
	type plain RunResult
	if r.Procs != (titan.ProcStats{}) {
		return json.Marshal(plain(r))
	}
	// A shallower member of the same name hides the empty list.
	return json.Marshal(struct {
		plain
		Procs []titan.ProcStat `json:"procs,omitempty"`
	}{plain: plain(r)})
}

// CompileResponse is the POST /compile reply. Key, IL, Asm, Report, and
// Run form the cached artifact (stored as exactly those fields' JSON,
// see artifact); Cached, CacheTier, and ElapsedNS are stamped per
// request. CacheTier "remote" marks an artifact served by the owning
// cluster peer rather than recompiled.
type CompileResponse struct {
	Key    string       `json:"key"`
	IL     string       `json:"il"`
	Asm    string       `json:"asm"`
	Report *pass.Report `json:"report"`
	Run    *RunResult   `json:"run,omitempty"`

	Cached    bool   `json:"cached"`
	CacheTier string `json:"cache_tier,omitempty"` // memory, disk, inflight, or remote
	ElapsedNS int64  `json:"elapsed_ns"`
}

// errQueueFull rejects work when every worker is busy and the queue is
// at depth; clients should back off and retry (the 503 carries a
// Retry-After and the queue geometry).
var errQueueFull = errors.New("service: compile queue full")

// unitOutcome is how one translation unit's request ended: either an
// artifact blob (with its cache provenance) or an HTTP status + error.
type unitOutcome struct {
	blob   []byte
	cached bool
	tier   string
	status int
	err    error
}

// validateUnit normalizes and bounds-checks one compile request.
func validateUnit(req *CompileRequest) error {
	if req.Source == "" {
		return errors.New("source must not be empty")
	}
	if req.Processors != 0 {
		// The paper's machine tops out at four processors; reject rather
		// than silently clamp (§2).
		if err := titan.ValidateProcessors(req.Processors); err != nil {
			return err
		}
	}
	if req.Options.VL != 0 {
		// Strip lengths are bounded by the Titan vector register file;
		// reject rather than clamp, like the processor count.
		if err := schedule.ValidateVL(req.Options.VL); err != nil {
			return err
		}
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	return nil
}

// handleCompile serves POST /compile: admission, cache lookup (local
// tiers, then the owning peer), then a deduplicated, queued, timed
// compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	start := time.Now()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading request body: %w", err))
		return
	}
	var req CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := validateUnit(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w, r, 1) {
		return
	}
	cats, err := s.resolveCatalogs(req.Options.Catalogs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	out := s.serveUnit(r.Context(), req, req.Options.driverOptions(cats))
	s.writeUnit(w, out, start)
}

// serveUnit runs the full per-unit path: key, local cache, remote peer
// tier, then the deduplicated queued compile bounded by the server
// timeout. Both POST /compile and each unit of POST /compile/batch land
// here, so the two endpoints share caching, dedup, and admission
// semantics exactly.
func (s *Server) serveUnit(ctx context.Context, req CompileRequest, opts driver.Options) unitOutcome {
	s.metrics.begin()
	defer s.metrics.end()

	key, err := requestKey(req, opts)
	if err != nil {
		return unitOutcome{status: http.StatusBadRequest, err: err}
	}

	if blob, tier := s.cache.Get(key); tier != TierNone {
		s.metrics.hit(tier)
		return unitOutcome{blob: blob, cached: true, tier: tier}
	}
	// A remote hit lands in local memory, so the node's next request
	// for the key is a memory hit.
	if blob, _, err := s.fetch(artifactKind, key); err == nil {
		s.metrics.hit(TierRemote)
		return unitOutcome{blob: blob, cached: true, tier: TierRemote}
	}

	fl, leader := s.flight.do(key, &s.inflight, func() ([]byte, any, error) {
		blob, err := s.compile(key, req, opts)
		return blob, nil, err
	})

	timeout := time.NewTimer(s.cfg.Timeout)
	defer timeout.Stop()
	select {
	case <-fl.done:
		if fl.err != nil {
			if errors.Is(fl.err, errQueueFull) {
				s.metrics.rejected()
				return unitOutcome{status: http.StatusServiceUnavailable, err: fl.err}
			}
			var pe *panicError
			if errors.As(fl.err, &pe) {
				s.metrics.panicked()
				return unitOutcome{status: http.StatusInternalServerError, err: fl.err}
			}
			s.metrics.failed()
			return unitOutcome{status: http.StatusUnprocessableEntity, err: fl.err}
		}
		if leader {
			// The leader's compile already recorded the miss (with its
			// pass report) in s.compile.
			return unitOutcome{blob: fl.blob}
		}
		s.metrics.hit(TierInflight)
		return unitOutcome{blob: fl.blob, cached: true, tier: TierInflight}
	case <-timeout.C:
		// The compile keeps running (it is tracked for drain and will
		// warm the cache); only this request gives up waiting.
		s.metrics.timeout()
		return unitOutcome{status: http.StatusGatewayTimeout,
			err: fmt.Errorf("compile still running after %s; retry to pick up the cached result", s.cfg.Timeout)}
	case <-ctx.Done():
		s.metrics.timeout()
		return unitOutcome{status: http.StatusServiceUnavailable, err: ctx.Err()}
	}
}

// writeUnit turns a unit outcome into the HTTP response for the single
// /compile endpoint.
func (s *Server) writeUnit(w http.ResponseWriter, out unitOutcome, start time.Time) {
	if out.err != nil {
		if errors.Is(out.err, errQueueFull) {
			s.writeQueueFull(w, out.err)
			return
		}
		if out.status == http.StatusUnprocessableEntity {
			compileError(w, out.status, out.err)
			return
		}
		httpError(w, out.status, out.err)
		return
	}
	s.respondArtifact(w, out.blob, start, out.cached, out.tier)
}

// writeQueueFull is the admission-queue 503: a Retry-After header plus
// a JSON body naming the queue geometry, so clients can back off by the
// server's own estimate instead of guessing.
func (s *Server) writeQueueFull(w http.ResponseWriter, err error) {
	occupied := len(s.queueSem)
	queued := occupied - s.cfg.Workers
	if queued < 0 {
		queued = 0
	}
	wait := s.queueWaitEstimate(queued)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":          err.Error(),
		"queue_depth":    s.cfg.QueueDepth,
		"queued":         queued,
		"workers":        s.cfg.Workers,
		"retry_after_ms": wait.Milliseconds(),
	})
}

// queueWaitEstimate guesses how long the backlog needs to drain: the
// observed mean compile latency times the queue length per worker.
// Crude, but an honest crude number beats a bare 503.
func (s *Server) queueWaitEstimate(queued int) time.Duration {
	mean := s.metrics.meanLatency()
	if mean <= 0 {
		mean = time.Second
	}
	est := mean * time.Duration(queued/s.cfg.Workers+1)
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// requestKey extends the driver's content-addressed compile key with the
// run spec, so "compile" and "compile and simulate on 2 processors" are
// distinct artifacts. The key is a pure function of request content, so
// every cluster node computes the same key — which is what makes ring
// ownership coherent.
func requestKey(req CompileRequest, opts driver.Options) (string, error) {
	base, err := driver.CacheKey(req.Source, opts)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, base)
	if req.Options.Tune {
		// Tuned and untuned compiles of the same unit are distinct
		// artifacts (different schedules, different code).
		fmt.Fprintf(h, "\ntune:entry=%s", req.Entry)
	}
	if req.Processors > 0 {
		fmt.Fprintf(h, "\nrun:procs=%d,entry=%s", req.Processors, req.Entry)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// compile is the leader path: take a queue slot, wait for a worker, run
// the full pipeline (plus optional simulation), cache the artifact and
// write it through to its cluster owner.
func (s *Server) compile(key string, req CompileRequest, opts driver.Options) ([]byte, error) {
	select {
	case s.queueSem <- struct{}{}:
		defer func() { <-s.queueSem }()
	default:
		return nil, errQueueFull
	}
	s.workerSem <- struct{}{}
	defer func() { <-s.workerSem }()
	if s.compileHook != nil {
		s.compileHook(key)
	}

	ctx := pass.NewContext()
	if req.Options.Tune {
		tres, err := s.tunedSchedules(req, opts)
		if err != nil {
			return nil, err
		}
		// Replay the decision log as sched-selected remarks so the
		// artifact (and every cache hit on it) carries the tuner's
		// verdicts, whether this compile tuned or reused a cached plan.
		for _, d := range tres.Remarks() {
			ctx.Diags.Report(d)
		}
		ctx.Schedules = tres.Schedules
	}
	res, err := driver.CompileWith(req.Source, opts, ctx)
	if err != nil {
		return nil, err
	}
	// The artifact is the JSON blob; once it is encoded (and on every
	// error path after this point) the compile's IL arenas are dead
	// weight, so bulk-free them instead of waiting on the GC. /metrics
	// exports the arena_bytes_live gauge this keeps honest.
	defer res.IL.Release()
	art := artifact{
		Key:    key,
		IL:     res.IL.String(),
		Asm:    driver.Disassemble(res),
		Report: res.Report,
	}
	if req.Processors > 0 {
		if _, ok := res.Machine.Funcs[req.Entry]; !ok {
			return nil, fmt.Errorf("entry function %q is not defined", req.Entry)
		}
		m := titan.NewMachine(res.Machine, req.Processors)
		start := time.Now()
		r, err := m.Run(req.Entry)
		hostNanos := time.Since(start).Nanoseconds()
		m.Release()
		if err != nil {
			return nil, fmt.Errorf("simulation: %w", err)
		}
		art.Run = &RunResult{Result: r, MFLOPS: r.MFLOPS(), Processors: req.Processors, HostNanos: hostNanos}
		s.metrics.maskRun(r)
	}
	blob, err := json.Marshal(art)
	if err != nil {
		return nil, err
	}
	s.publish(artifactKind, key, blob, nil)
	s.metrics.miss(res.Report)
	return blob, nil
}

// tunedSchedules returns the tuned schedule set for the request's unit:
// from the store when a previous request already paid for the search,
// else from the plan's owning cluster peer, else by running the
// autotuner (and publishing the result locally and to the owner). Tuning
// is by far the most expensive thing the daemon does — dozens of
// candidate compiles, each simulated — so its result is kept one level
// above the artifact: the plan key is the base compile fingerprint plus
// the tuning entry, NOT the run spec, so requests that differ only in
// processor count share one tuned plan, cluster-wide.
func (s *Server) tunedSchedules(req CompileRequest, opts driver.Options) (*tune.Result, error) {
	key, err := planKey(req, opts)
	if err != nil {
		return nil, err
	}
	if tres, ok := s.schedules.get(key); ok {
		s.metrics.schedHit()
		return tres, nil
	}
	if _, val, err := s.fetch(planKind, key); err == nil {
		s.metrics.schedRemoteHit()
		return val.(*tune.Result), nil
	}
	s.metrics.schedMiss()
	procs := req.Processors
	if procs <= 0 {
		procs = 1
	}
	tres, err := tune.Tune(req.Source, opts, tune.Config{Processors: procs, Entry: req.Entry})
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}
	raw, err := json.Marshal(tres)
	if err != nil {
		return nil, fmt.Errorf("encoding tuned plan: %w", err)
	}
	s.publish(planKind, key, raw, tres)
	s.metrics.tuned()
	return tres, nil
}

// planKey is the cluster-wide identity of a tuned schedule plan: a hex
// digest over the base compile fingerprint and the tuning entry, hex so
// it can ride the peer tier's /schedules/{key} path like cache keys do.
func planKey(req CompileRequest, opts driver.Options) (string, error) {
	base, err := driver.CacheKey(req.Source, opts)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(base + "\ntune:entry=" + req.Entry))
	return hex.EncodeToString(sum[:]), nil
}

// checkPlan is the plan kind's ingest gate. A plan is compiled with as
// soon as it is held, so it has to decode and obey the machine-range
// invariants (VL bounds, unroll bounds, known mask strategies): a corrupt
// or newer-versioned plan must not enter the store and poison compiles.
func checkPlan(body []byte) (*tune.Result, error) {
	var tres tune.Result
	if err := json.Unmarshal(body, &tres); err != nil {
		return nil, fmt.Errorf("plan does not decode: %w", err)
	}
	if err := tres.Schedules.Validate(); err != nil {
		return nil, fmt.Errorf("plan rejected: %w", err)
	}
	return &tres, nil
}

// compileError writes a compile failure, attaching the positioned
// structured form when the error came from the front end (lex, parse,
// sema, lower), so clients get a machine-readable code and source
// location alongside the message.
func compileError(w http.ResponseWriter, status int, err error) {
	if d, ok := driver.ErrorDiagnostic(err); ok {
		writeJSON(w, status, map[string]any{"error": err.Error(), "diag": d})
		return
	}
	httpError(w, status, err)
}
