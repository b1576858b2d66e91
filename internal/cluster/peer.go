package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Peer is one remote cluster member: a thin HTTP client over the peer
// tier (GET and PUT of /cache/{key}, /schedules/{key} and
// /catalogs/{id}) with a per-attempt timeout, bounded retries with jittered
// exponential backoff, and a circuit breaker. Every outcome is counted;
// Status folds the counters into /metrics.
type Peer struct {
	url     string
	client  *http.Client
	breaker *breaker
	timeout time.Duration // per attempt
	retries int           // extra attempts after the first

	hits      atomic.Int64 // fetches answered 200
	misses    atomic.Int64 // fetches answered 404
	timeouts  atomic.Int64 // attempts that hit the per-peer timeout
	errs      atomic.Int64 // attempts that failed any other way
	fastFails atomic.Int64 // requests refused by the open breaker
	pushes    atomic.Int64 // successful write-throughs to this peer
	pushErrs  atomic.Int64

	mu          sync.Mutex
	ready       bool
	lastProbe   time.Time
	lastProbeNS int64
	probeErr    string
}

// errBreakerOpen fails a request fast while the peer's breaker is open.
var errBreakerOpen = errors.New("cluster: peer circuit breaker open")

// PeerStatus is one peer's row in the /metrics cluster section.
type PeerStatus struct {
	URL     string `json:"url"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
	// LastProbeNS is how long the last readiness probe took; LastProbeAge
	// is how long ago it ran (0 before the first round).
	LastProbeNS    int64  `json:"last_probe_ns"`
	LastProbeAgeNS int64  `json:"last_probe_age_ns"`
	ProbeError     string `json:"probe_error,omitempty"`

	FetchHits     int64 `json:"fetch_hits"`
	FetchMisses   int64 `json:"fetch_misses"`
	FetchTimeouts int64 `json:"fetch_timeouts"`
	FetchErrors   int64 `json:"fetch_errors"`
	BreakerDrops  int64 `json:"breaker_drops"`
	Pushes        int64 `json:"pushes"`
	PushErrors    int64 `json:"push_errors"`
}

// URL returns the peer's advertised base URL (its ring node ID).
func (p *Peer) URL() string { return p.url }

// Status snapshots the peer for /metrics.
func (p *Peer) Status() PeerStatus {
	p.mu.Lock()
	ready, lastProbe, probeNS, probeErr := p.ready, p.lastProbe, p.lastProbeNS, p.probeErr
	p.mu.Unlock()
	st := PeerStatus{
		URL:           p.url,
		Ready:         ready,
		Breaker:       p.breaker.state(),
		LastProbeNS:   probeNS,
		ProbeError:    probeErr,
		FetchHits:     p.hits.Load(),
		FetchMisses:   p.misses.Load(),
		FetchTimeouts: p.timeouts.Load(),
		FetchErrors:   p.errs.Load(),
		BreakerDrops:  p.fastFails.Load(),
		Pushes:        p.pushes.Load(),
		PushErrors:    p.pushErrs.Load(),
	}
	if !lastProbe.IsZero() {
		st.LastProbeAgeNS = time.Since(lastProbe).Nanoseconds()
	}
	return st
}

// Fetch GETs path (e.g. "/cache/<key>") from the peer. The bool result
// distinguishes a definitive miss (404 — the owner does not have the
// key, do not retry) from a hit; any other failure is an error after
// the retry budget is spent.
func (p *Peer) Fetch(path string) ([]byte, bool, error) {
	if !p.breaker.allow() {
		p.fastFails.Add(1)
		return nil, false, errBreakerOpen
	}
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(attempt))
		}
		blob, found, err := p.fetchOnce(path)
		if err == nil {
			p.breaker.success()
			if found {
				p.hits.Add(1)
			} else {
				p.misses.Add(1)
			}
			return blob, found, nil
		}
		p.countFailure(err)
		lastErr = err
	}
	p.breaker.failure()
	return nil, false, lastErr
}

func (p *Peer) fetchOnce(path string) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, err
		}
		return blob, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		// Drain so the connection is reusable, then report the status.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("cluster: peer %s: %s returned %d", p.url, path, resp.StatusCode)
	}
}

// Push writes blob to path on the peer with method (the service's
// write-throughs are all PUTs). Push is the write-through half of
// ownership: the node that did the work hands the result to the key's
// owner so every future cluster-wide lookup finds it in one hop.
func (p *Peer) Push(method, path, contentType string, blob []byte) error {
	if !p.breaker.allow() {
		p.fastFails.Add(1)
		p.pushErrs.Add(1)
		return errBreakerOpen
	}
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(attempt))
		}
		err := p.pushOnce(method, path, contentType, blob)
		if err == nil {
			p.breaker.success()
			p.pushes.Add(1)
			return nil
		}
		p.countFailure(err)
		lastErr = err
	}
	p.breaker.failure()
	p.pushErrs.Add(1)
	return lastErr
}

func (p *Peer) pushOnce(method, path, contentType string, blob []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, p.url+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("cluster: peer %s: %s %s returned %d", p.url, method, path, resp.StatusCode)
	}
	return nil
}

// probe GETs /readyz and records the outcome for Status. Probes bypass
// the breaker on purpose: they are the mechanism by which a recovered
// peer is noticed, and they run at a fixed low rate.
func (p *Peer) probe() {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	start := time.Now()
	ready := false
	probeErr := ""
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err == nil {
		var resp *http.Response
		resp, err = p.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
			if !ready {
				probeErr = fmt.Sprintf("readyz returned %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		probeErr = err.Error()
	}
	p.mu.Lock()
	p.ready = ready
	p.lastProbe = start
	p.lastProbeNS = time.Since(start).Nanoseconds()
	p.probeErr = probeErr
	p.mu.Unlock()
}

// countFailure classifies one failed attempt for the counters.
func (p *Peer) countFailure(err error) {
	if isTimeout(err) {
		p.timeouts.Add(1)
	} else {
		p.errs.Add(1)
	}
}

func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne interface{ Timeout() bool }
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	// url.Error wraps the context error in a string on some paths.
	var ue *url.Error
	return errors.As(err, &ue) && ue.Timeout()
}

// backoff returns the sleep before retry attempt n (1-based): 10ms
// doubling per attempt, with up to 50% random jitter so a burst of
// requests that failed together does not retry together.
func backoff(attempt int) time.Duration {
	base := 10 * time.Millisecond << (attempt - 1)
	if base > time.Second {
		base = time.Second
	}
	return base + time.Duration(rand.Int64N(int64(base)/2+1))
}
