package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/inline"
	"repro/internal/tune"
)

// The peer tier is the owner side of cluster mode: plain content-
// addressed storage endpoints that cluster members call on each other.
//
//	GET /cache/{key}      — serve a locally cached artifact (never
//	                        recursing to the remote tier, never compiling)
//	PUT /cache/{key}      — accept a write-through from the node that
//	                        compiled an artifact this node owns
//	GET /schedules/{key}  — serve a tuned schedule plan
//	PUT /schedules/{key}  — accept a tuned plan write-through
//	GET /catalogs/{id}    — serve a registered §7 catalog's raw bytes
//
// Everything stored here is content-addressed, so the handlers are
// idempotent and need no coordination: re-PUTting an artifact is a
// no-op, and a GET either has the exact bytes or answers 404 (the
// requester then compiles locally — a peer miss is never an error).

// validKey gates peer-tier keys: artifact and plan keys are SHA-256 hex
// digests; anything else is rejected before it can touch the disk tier.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleCacheGet serves GET /cache/{key}: the local memory and disk
// tiers only. Deliberately no remote recursion — the requester already
// determined this node is the owner, and owners that re-forward would
// turn one lookup into a storm.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	blob, tier := s.cache.Get(key)
	if tier == TierNone {
		httpError(w, http.StatusNotFound, fmt.Errorf("no artifact for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache-Tier", tier)
	w.Write(blob)
}

// handleCachePut accepts a write-through artifact from a peer. The blob
// is validated here, once, because every later hit serves it unread.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading artifact body: %w", err))
		return
	}
	if err := s.ingestPeerArtifact(key, blob); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.cache.Put(key, blob)
	w.WriteHeader(http.StatusNoContent)
}

// handleScheduleGet serves GET /schedules/{key}: a tuned plan this node
// holds, as tune.Result JSON.
func (s *Server) handleScheduleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed plan key %q", key))
		return
	}
	tres, ok := s.schedules.get(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no tuned plan for key %s", key))
		return
	}
	writeJSON(w, http.StatusOK, tres)
}

// handleSchedulePut accepts a tuned-plan write-through.
func (s *Server) handleSchedulePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed plan key %q", key))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading plan body: %w", err))
		return
	}
	tres, err := s.ingestPeerPlan(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.schedules.put(key, tres)
	w.WriteHeader(http.StatusNoContent)
}

// checkPlan is the ingest gate for tuned plans this process did not
// search for itself (a peer's PUT /schedules/{key}, a peer's answer to a
// fetch). A plan is compiled with as soon as it is cached, so it has to
// decode and obey the machine-range invariants (VL bounds, unroll
// bounds, known mask strategies): a corrupt or newer-versioned plan must
// not enter the cache and poison compiles.
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

// ingestPeerPlan runs the ingest gate on bytes a peer supplied and
// counts a rejection in /metrics.
func (s *Server) ingestPeerPlan(body []byte) (*tune.Result, error) {
	tres, err := checkPlan(body)
	if err != nil {
		s.metrics.peerReject()
	}
	return tres, err
}

// handleCatalogGet serves GET /catalogs/{id}: the raw serialized bytes
// of a registered catalog, for peers resolving a catalog id they don't
// hold. Catalog ids are content fingerprints, so the caller verifies
// what it gets.
func (s *Server) handleCatalogGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, ok := s.registry.raw(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no catalog %q registered here", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

// remotePlanFetch asks the plan's owning peer for a tuned schedule set
// some other node already paid to search.
func (s *Server) remotePlanFetch(key string) (*tune.Result, bool) {
	if !s.cluster.Enabled() {
		return nil, false
	}
	owner := s.cluster.Owner(key)
	if owner == nil {
		return nil, false
	}
	blob, found, err := owner.Fetch(cluster.SchedulePath(key))
	if err != nil || !found {
		return nil, false
	}
	// Validated like a PUT: a plan the owner should never have held is
	// a peer miss, and the unit is tuned here.
	tres, err := s.ingestPeerPlan(blob)
	return tres, err == nil
}

// pushPlanToOwner write-throughs a freshly tuned plan to its owner,
// asynchronously: tuning costs dozens of measured compiles, so sharing
// the result is the single highest-value byte stream in the cluster.
func (s *Server) pushPlanToOwner(key string, tres *tune.Result) {
	owner := s.cluster.Owner(key)
	if owner == nil {
		return
	}
	blob, err := json.Marshal(tres)
	if err != nil {
		return
	}
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		owner.Push(http.MethodPut, cluster.SchedulePath(key), "application/json", blob)
	}()
}

// resolveCatalogs maps catalog ids to decoded catalogs: from the local
// registry first, then — in cluster mode — from peers in ring order
// (owner first). A catalog fetched from a peer is verified against its
// content fingerprint and registered locally, so the fleet converges on
// every node holding what its clients use.
func (s *Server) resolveCatalogs(ids []string) ([]*inline.Catalog, error) {
	cats, missing := s.registry.resolveKnown(ids)
	if len(missing) == 0 {
		return cats, nil
	}
	if !s.cluster.Enabled() {
		return nil, fmt.Errorf("unknown catalog %q: upload it via POST /catalogs first", missing[0])
	}
	for _, id := range missing {
		if err := s.fetchCatalogFromPeers(id); err != nil {
			return nil, err
		}
	}
	cats, missing = s.registry.resolveKnown(ids)
	if len(missing) > 0 {
		return nil, fmt.Errorf("unknown catalog %q: upload it via POST /catalogs first", missing[0])
	}
	return cats, nil
}

// fetchCatalogFromPeers walks the id's ring preference order asking
// each peer for the raw catalog. Content is verified: bytes that do not
// decode, or decode to a different fingerprint, are discarded and the
// walk continues.
func (s *Server) fetchCatalogFromPeers(id string) error {
	for _, p := range s.cluster.OwnerOrder(id) {
		raw, found, err := p.Fetch(cluster.CatalogPath(id))
		if err != nil || !found {
			continue
		}
		cat, err := inline.ReadCatalog(bytes.NewReader(raw))
		if err != nil {
			continue
		}
		fp, err := cat.Fingerprint()
		if err != nil || fp != id {
			continue
		}
		s.registry.add(cat, "", raw)
		return nil
	}
	return fmt.Errorf("unknown catalog %q: not registered here or on any reachable peer; upload it via POST /catalogs first", id)
}

// pushCatalogToOwner write-throughs an uploaded catalog to its owning
// peer so cluster-wide resolution is one hop from anywhere.
func (s *Server) pushCatalogToOwner(id string, raw []byte) {
	if !s.cluster.Enabled() {
		return
	}
	owner := s.cluster.Owner(id)
	if owner == nil {
		return
	}
	buf := make([]byte, len(raw))
	copy(buf, raw)
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		owner.Push(http.MethodPost, "/catalogs", "application/octet-stream", buf)
	}()
}
