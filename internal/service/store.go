package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cluster"
)

// A kind is one sort of content-addressed bytes the store holds and
// replicates to its ring owner. The Cache, the peer-tier handlers, the
// owner fetch and the write-through are written once, over kinds:
//
//	kind        prefix        validate                      evictable
//	artifacts   /cache/       checkArtifact                 yes
//	plans       /schedules/   checkPlan                     yes
//	catalogs    /catalogs/    ReadCatalog + fingerprint     no (clients hold the ids)
//
// The peer tier is plain storage that cluster members call on each other:
// GET {prefix}{key} serves what this node holds (never recursing to the
// remote tier, never computing), PUT {prefix}{key} accepts a write-through
// from the node that produced the entry. Everything is content-addressed,
// so the handlers are idempotent and need no coordination.
type kind struct {
	prefix string // peer-tier path prefix
	ctype  string // Content-Type of the bytes on the wire
	// validate is the ingest gate for bytes this process did not produce
	// itself, returning the value they decode to.
	validate func(key string, raw []byte) (any, error)
	// evictable entries can be recomputed and share the LRU; the others
	// are pinned.
	evictable bool
}

var (
	artifactKind = &kind{prefix: "/cache/", ctype: "application/json", evictable: true,
		validate: func(key string, raw []byte) (any, error) { return nil, checkArtifact(key, raw) }}
	planKind = &kind{prefix: "/schedules/", ctype: "application/json", evictable: true,
		validate: func(_ string, raw []byte) (any, error) { return checkPlan(raw) }}
	catalogKind = &kind{prefix: "/catalogs/", ctype: "application/octet-stream",
		validate: func(key string, raw []byte) (any, error) { return checkCatalog(key, raw) }}
)

// store is one kind's typed view of the Cache.
type store[V any] struct {
	c *Cache
	k *kind
}

func (st store[V]) get(key string) (v V, ok bool) {
	it, ok := st.c.lookup(st.k, key)
	if ok {
		v = it.val.(V)
	}
	return v, ok
}

// all returns every held value of the kind, in no particular order.
func (st store[V]) all() []V {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	out := make([]V, 0, st.c.perKind[st.k])
	for s, it := range st.c.items {
		if s.k == st.k {
			out = append(out, it.val.(V))
		}
	}
	return out
}

// validKey gates keys: every kind is keyed by a SHA-256 hex digest, and
// anything else is rejected before it can touch storage or a peer.
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

// ingest passes bytes a peer supplied under key (a PUT, or the answer to
// a fetch) through the key check and k's gate, counting a rejection in
// /metrics.
func (s *Server) ingest(k *kind, key string, raw []byte) (any, error) {
	var val any
	var err error
	if validKey(key) {
		val, err = k.validate(key, raw)
	} else {
		err = fmt.Errorf("malformed key %q", key)
	}
	if err != nil {
		s.metrics.peerReject()
	}
	return val, err
}

// publish stores what this node produced — a compiled artifact, a tuned
// plan, an uploaded catalog — and writes it through to the key's ring
// owner, asynchronously and best-effort: the push rides the drain
// WaitGroup so shutdown does not strand it, but a failed push costs only
// future cache efficiency (the peer counters record it). Only a pinned
// kind can be refused, and a refused entry is not pushed.
func (s *Server) publish(k *kind, key string, raw []byte, val any) error {
	if err := s.cache.put(k, key, raw, val, true); err != nil {
		return err
	}
	if owner := s.cluster.Owner(key); owner != nil {
		s.inflight.Add(1)
		go func() {
			defer s.inflight.Done()
			owner.Push(http.MethodPut, k.prefix+key, k.ctype, raw)
		}()
	}
	return nil
}

// errNotHeld is a fetch that found no usable copy: no peer to ask, or
// every peer asked missed, failed, or answered bytes the gate refused.
var errNotHeld = errors.New("service: no reachable peer holds the key")

// fetch asks the cluster for k's entry under key and holds what it gets
// in local memory (never on disk: the owner keeps the durable copy).
// Whom it asks follows from eviction. An evictable kind asks only the
// key's owner, and only when that is a remote peer: a miss is just a
// recompute, so a longer walk would cost more than it saves. A pinned
// kind walks OwnerOrder, because a miss fails the client. Concurrent
// fetches of one entry share a flight, and what a peer answers passes the
// same gate as a PUT.
func (s *Server) fetch(k *kind, key string) ([]byte, any, error) {
	var peers []*cluster.Peer
	switch {
	case !validKey(key): // asked of no one
	case k.evictable:
		if owner := s.cluster.Owner(key); owner != nil {
			peers = []*cluster.Peer{owner}
		}
	default:
		peers = s.cluster.OwnerOrder(key)
	}
	if len(peers) == 0 {
		return nil, nil, errNotHeld
	}
	path := k.prefix + key
	fl, _ := s.flight.do(path, &s.inflight, func() ([]byte, any, error) {
		for _, p := range peers {
			raw, found, err := p.Fetch(path)
			if err != nil || !found {
				continue
			}
			if val, err := s.ingest(k, key, raw); err == nil {
				return raw, val, s.cache.put(k, key, raw, val, false)
			}
		}
		return nil, nil, errNotHeld
	})
	<-fl.done
	return fl.blob, fl.val, fl.err
}

// handleGet serves GET {prefix}{key} from this node's own tiers only. No
// remote recursion: the requester already chose this node, and owners
// that re-forward would turn one lookup into a storm.
func (s *Server) handleGet(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validKey(key) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("malformed key %q", key))
			return
		}
		raw, tier := s.cache.get(k, key)
		if tier == TierNone {
			httpError(w, http.StatusNotFound, fmt.Errorf("nothing held under %s%s", k.prefix, key))
			return
		}
		h := w.Header()
		h.Set("Content-Type", k.ctype)
		h.Set("X-Cache-Tier", tier)
		w.Write(raw)
	}
}

// handlePut accepts a write-through from a peer. The bytes are validated
// here, once: an artifact is served unread from now on, and a plan or
// catalog is used as decoded now.
func (s *Server) handlePut(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading body: %w", err))
			return
		}
		val, err := s.ingest(k, key, raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := s.cache.put(k, key, raw, val, true); err != nil {
			httpError(w, http.StatusInsufficientStorage, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}
