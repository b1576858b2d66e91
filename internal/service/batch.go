package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/inline"
)

// BatchRequest is the POST /compile/batch body: a whole translation set
// — the paper's §7 unit of inline expansion — compiled in one
// round-trip. Catalogs, options, and the run spec apply to every unit;
// the catalog ids are resolved once and the decoded catalogs shared
// across all units, so a 50-file set pays one registry resolution (and
// at most one peer fetch per catalog) instead of 50.
type BatchRequest struct {
	Sources []string       `json:"sources"`
	Options CompileOptions `json:"options"`
	// Processors > 0 simulates every unit on that many processors.
	Processors int `json:"processors,omitempty"`
	// Entry names the simulation entry function (default main).
	Entry string `json:"entry,omitempty"`
}

// BatchUnitResult is one unit's outcome inside a batch. Status is the
// HTTP status the unit would have received standalone; Artifact is set
// on 200.
type BatchUnitResult struct {
	Index    int              `json:"index"`
	Status   int              `json:"status"`
	Error    string           `json:"error,omitempty"`
	Artifact *CompileResponse `json:"artifact,omitempty"`
}

// BatchTally is the set-level summary of a /compile/batch reply.
type BatchTally struct {
	Units      int   `json:"units"`
	OK         int   `json:"ok"`
	Compiled   int   `json:"compiled"`    // fresh compiles (local misses)
	CacheHits  int   `json:"cache_hits"`  // memory/disk/inflight hits
	RemoteHits int   `json:"remote_hits"` // served by the owning peer
	Failed     int   `json:"failed"`
	ElapsedNS  int64 `json:"elapsed_ns"`
}

// BatchResponse is the POST /compile/batch reply: per-unit results in
// input order plus the set-level tallies.
type BatchResponse struct {
	Results []BatchUnitResult `json:"results"`
	BatchTally
}

// batchReply is BatchResponse as the server encodes it: each unit's
// artifact is its stored bytes with the stamp spliced on, embedded
// verbatim, where the client-side type has the decoded CompileResponse.
type batchReply struct {
	Results []batchUnitReply `json:"results"`
	BatchTally
}

type batchUnitReply struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
}

// handleBatch serves POST /compile/batch. Each unit takes the exact
// single-request path (cache tiers, remote peer, singleflight, queue)
// via serveUnit; the batch adds shared catalog decoding, one admission
// charge of len(sources) tokens, and a fan-out bounded by the worker
// count so one batch cannot occupy the whole admission queue.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
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
	var breq BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(breq.Sources) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("sources must not be empty"))
		return
	}
	if len(breq.Sources) > maxBatchUnits {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d units; the limit is %d", len(breq.Sources), maxBatchUnits))
		return
	}
	// A batch is N compiles and is charged as N: fairness cannot be
	// bypassed by wrapping a flood in one request.
	if !s.admit(w, r, len(breq.Sources)) {
		return
	}
	// Resolve once, share everywhere: every unit compiles against the
	// same decoded catalog pointers.
	cats, err := s.resolveCatalogs(breq.Options.Catalogs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.batch(len(breq.Sources))

	units := make([]CompileRequest, len(breq.Sources))
	for i, src := range breq.Sources {
		units[i] = CompileRequest{
			Source:     src,
			Options:    breq.Options,
			Processors: breq.Processors,
			Entry:      breq.Entry,
		}
		if err := validateUnit(&units[i]); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("unit %d: %w", i, err))
			return
		}
	}

	reply := batchReply{Results: make([]batchUnitReply, len(units)), BatchTally: BatchTally{Units: len(units)}}
	outs := make([]unitOutcome, len(units))
	var wg sync.WaitGroup
	// Bound in-batch concurrency at the worker count: enough to keep
	// every worker busy, few enough that the admission queue stays
	// available to other clients while the batch drains.
	sem := make(chan struct{}, s.cfg.Workers)
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reply.Results[i], outs[i] = s.batchUnit(r, units[i], cats, i)
		}(i)
	}
	wg.Wait()

	for _, out := range outs {
		switch {
		case out.err != nil:
			reply.Failed++
		case out.tier == TierRemote:
			reply.OK++
			reply.RemoteHits++
		case out.cached:
			reply.OK++
			reply.CacheHits++
		default:
			reply.OK++
			reply.Compiled++
		}
	}
	reply.ElapsedNS = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, reply)
}

// batchUnit serves one unit of a batch and shapes the outcome: on
// success the same stamped bytes a standalone /compile would have
// written (less the newline), with the unit's own elapsed time.
func (s *Server) batchUnit(r *http.Request, req CompileRequest, cats []*inline.Catalog, index int) (batchUnitReply, unitOutcome) {
	unitStart := time.Now()
	out := s.serveUnit(r.Context(), req, req.Options.driverOptions(cats))
	res := batchUnitReply{Index: index, Status: out.status}
	if out.err != nil {
		if res.Status == 0 {
			res.Status = http.StatusInternalServerError
		}
		res.Error = out.err.Error()
		return res, out
	}
	res.Status = http.StatusOK
	elapsed := time.Since(unitStart)
	s.metrics.observe(elapsed)
	res.Artifact = appendStamped(make([]byte, 0, len(out.blob)+stampCap), out.blob, out.cached, out.tier, elapsed.Nanoseconds())
	return res, out
}
