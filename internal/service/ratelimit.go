package service

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// rateLimiter is per-client admission fairness: one token bucket per
// client ID, refilled at rate tokens/sec up to burst. A single compile
// costs one token; a batch of N units costs N — so a client cannot
// launder a flood through the batch endpoint. Without this, admission
// is first-come-first-served and one greedy load generator can hold the
// whole queue while everyone else eats 503s; with it, the greedy client
// gets 429s naming exactly how long to back off and the queue stays
// available for the rest.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // injectable for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the client table, whose keys a client chooses.
const maxBuckets = 8192

func newRateLimiter(rate, burst float64) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, buckets: map[string]*bucket{}, now: time.Now}
}

// take spends n tokens from client's bucket. When the bucket is short,
// it reports how long the client should wait before the n tokens will
// have accumulated — the Retry-After value.
func (l *rateLimiter) take(client string, n float64) (bool, time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.sweep(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	if n > l.burst {
		// The request can never succeed at this burst size; tell the
		// client the time to fill the whole bucket so it splits or slows.
		need = l.burst
	}
	return false, time.Duration(need / l.rate * float64(time.Second))
}

// sweep makes room in a full client table. It drops the buckets idle
// long enough to have refilled completely, which are indistinguishable
// from fresh ones; if every bucket is still in use, it drops arbitrary
// ones, whose clients restart from a full bucket — a cost in fairness,
// never in memory. Called with the lock held.
func (l *rateLimiter) sweep(now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for id, b := range l.buckets {
		if now.Sub(b.last) > full {
			delete(l.buckets, id)
		}
	}
	for id := range l.buckets {
		if len(l.buckets) < maxBuckets {
			break
		}
		delete(l.buckets, id)
	}
}

// clientID identifies the caller for fairness accounting: an explicit
// X-Client-ID header when the client sets one, else the peer host (not
// host:port — every connection from one machine shares a bucket).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit charges cost tokens to the request's client. On refusal it
// writes the full 429 — Retry-After header plus a JSON body naming the
// client and the wait — and reports false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, cost int) bool {
	if s.limiter == nil {
		return true
	}
	client := clientID(r)
	ok, wait := s.limiter.take(client, float64(cost))
	if ok {
		return true
	}
	s.metrics.rateLimited()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":          fmt.Sprintf("client %q is over its admission rate; retry after %dms", client, wait.Milliseconds()),
		"client":         client,
		"retry_after_ms": wait.Milliseconds(),
	})
	return false
}

// retryAfterSeconds rounds a wait up to whole seconds, minimum 1 (a
// Retry-After of 0 reads as "retry immediately", which defeats it).
func retryAfterSeconds(wait time.Duration) int {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
