package service

import (
	"fmt"
	"testing"
	"time"
)

// TestRateLimiterRefill drives the token bucket with a fake clock:
// burst is spendable immediately, then tokens return at the configured
// rate, and the reported wait is exactly the time until enough
// accumulate.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 4) // 2 tokens/sec, burst 4
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }

	if ok, _ := l.take("c", 4); !ok {
		t.Fatal("full burst refused")
	}
	ok, wait := l.take("c", 1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait != 500*time.Millisecond {
		t.Errorf("wait = %v, want 500ms for 1 token at 2/sec", wait)
	}
	now = now.Add(time.Second) // +2 tokens
	if ok, _ := l.take("c", 2); !ok {
		t.Error("refilled tokens refused")
	}
	// A request larger than the burst can never succeed; the wait is the
	// full-bucket time so the client knows to split.
	_, wait = l.take("c", 10)
	if wait != 2*time.Second {
		t.Errorf("oversized wait = %v, want full-bucket 2s", wait)
	}
}

// TestRateLimiterSweep: when the client table fills, buckets idle long
// enough to have refilled completely are dropped.
func TestRateLimiterSweep(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxBuckets; i++ {
		l.take(fmt.Sprintf("old%d", i), 1)
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("table size %d", len(l.buckets))
	}
	now = now.Add(time.Hour) // everyone is long refilled
	l.take("fresh", 1)
	if len(l.buckets) != 1 {
		t.Errorf("sweep left %d buckets, want 1", len(l.buckets))
	}
}

// TestRateLimiterTableBounded: a client inventing a new ID per request
// cannot grow the table past maxBuckets, even when no bucket is idle.
func TestRateLimiterTableBounded(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxBuckets+100; i++ {
		l.take(fmt.Sprintf("id%d", i), 1)
		if len(l.buckets) > maxBuckets {
			t.Fatalf("after %d clients the table holds %d buckets", i+1, len(l.buckets))
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int
	}{{0, 1}, {10 * time.Millisecond, 1}, {time.Second, 1}, {1100 * time.Millisecond, 2}} {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
}
