package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/inline"
)

// Catalogs are §7 as a network service: procedure catalogs are uploaded
// once, keyed by content fingerprint, and attached to compiles by that
// id. They are the store's pinned kind — clients hold the ids, so an
// entry is never evicted — and they are immutable after upload (the
// inliner copies callee statements out of them and only reads their
// expressions), so one decoded catalog serves any number of concurrent
// compiles.

// CatalogRecord is the store's metadata for one catalog.
type CatalogRecord struct {
	ID       string    `json:"id"` // content fingerprint (SHA-256 hex)
	Name     string    `json:"name,omitempty"`
	Procs    []string  `json:"procs"`
	Globals  int       `json:"globals"`
	Bytes    int       `json:"bytes"`
	Uploaded time.Time `json:"uploaded"`
}

// catalogEntry is the value the store holds for a catalog.
type catalogEntry struct {
	cat *inline.Catalog
	rec CatalogRecord
}

// decodeCatalog reads serialized catalog bytes and names them by their
// content fingerprint.
func decodeCatalog(raw []byte) (*catalogEntry, error) {
	cat, err := inline.ReadCatalog(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	id, err := cat.Fingerprint()
	if err != nil {
		return nil, err
	}
	procs := make([]string, 0, len(cat.Procs))
	for _, p := range cat.Procs {
		procs = append(procs, p.Name)
	}
	sort.Strings(procs)
	rec := CatalogRecord{ID: id, Procs: procs, Globals: len(cat.Globals), Bytes: len(raw), Uploaded: time.Now().UTC()}
	return &catalogEntry{cat: cat, rec: rec}, nil
}

// checkCatalog is the catalog kind's ingest gate: the bytes decode to a
// catalog whose fingerprint is the id they are stored under.
func checkCatalog(id string, raw []byte) (*catalogEntry, error) {
	ce, err := decodeCatalog(raw)
	if err == nil && ce.rec.ID != id {
		err = fmt.Errorf("catalog fingerprint %s does not match id %s", ce.rec.ID, id)
	}
	return ce, err
}

// resolveCatalogs maps catalog ids to decoded catalogs, from the store
// or, in cluster mode, from peers in ring order. The decoded catalogs are
// shared by pointer, so a batch of compiles resolves once and every unit
// reuses the same tables.
func (s *Server) resolveCatalogs(ids []string) ([]*inline.Catalog, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	cats := make([]*inline.Catalog, 0, len(ids))
	for _, id := range ids {
		ce, ok := s.catalogs.get(id)
		if !ok {
			_, val, err := s.fetch(catalogKind, id)
			if errors.Is(err, errNotHeld) {
				return nil, fmt.Errorf("unknown catalog %q: not held here or by any reachable peer; upload it via POST /catalogs first", id)
			}
			if err != nil {
				return nil, fmt.Errorf("catalog %s: %w", id, err)
			}
			ce = val.(*catalogEntry)
		}
		cats = append(cats, ce.cat)
	}
	return cats, nil
}

// CatalogUploadResponse is the POST /catalogs body.
type CatalogUploadResponse struct {
	Catalog CatalogRecord `json:"catalog"`
	Created bool          `json:"created"`
}

// CatalogListResponse is the GET /catalogs body.
type CatalogListResponse struct {
	Catalogs []CatalogRecord `json:"catalogs"`
	Count    int             `json:"count"`
}

// handleCatalogs serves POST (upload one serialized catalog, body as
// produced by titancc -emit-catalog; also how older peers write catalogs
// through) and GET (list the catalogs held here).
func (s *Server) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading catalog body: %w", err))
			return
		}
		ce, err := decodeCatalog(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if held, ok := s.catalogs.get(ce.rec.ID); ok {
			writeJSON(w, http.StatusOK, CatalogUploadResponse{Catalog: held.rec})
			return
		}
		ce.rec.Name = r.URL.Query().Get("name")
		// Held here and handed to the ring owner, so any node resolves it
		// in one hop wherever the client happened to upload it.
		if err := s.publish(catalogKind, ce.rec.ID, body, ce); err != nil {
			httpError(w, http.StatusInsufficientStorage, err)
			return
		}
		writeJSON(w, http.StatusCreated, CatalogUploadResponse{Catalog: ce.rec, Created: true})
	case http.MethodGet:
		held := s.catalogs.all()
		recs := make([]CatalogRecord, len(held))
		for i, ce := range held {
			recs[i] = ce.rec
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		writeJSON(w, http.StatusOK, CatalogListResponse{Catalogs: recs, Count: len(recs)})
	default:
		w.Header().Set("Allow", "GET, POST")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
