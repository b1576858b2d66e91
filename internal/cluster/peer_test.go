package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func testPeer(t *testing.T, h http.Handler, retries int, timeout time.Duration) (*Peer, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &Peer{
		url:     ts.URL,
		client:  ts.Client(),
		breaker: newBreaker(3, time.Minute),
		timeout: timeout,
		retries: retries,
	}, ts
}

func TestPeerFetchHitMiss(t *testing.T) {
	p, _ := testPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cache/haskey" {
			w.Write([]byte("artifact"))
			return
		}
		http.NotFound(w, r)
	}), 0, time.Second)

	blob, found, err := p.Fetch("/cache/haskey")
	if err != nil || !found || string(blob) != "artifact" {
		t.Fatalf("hit: blob=%q found=%v err=%v", blob, found, err)
	}
	_, found, err = p.Fetch("/cache/nokey")
	if err != nil || found {
		t.Fatalf("miss: found=%v err=%v", found, err)
	}
	st := p.Status()
	if st.FetchHits != 1 || st.FetchMisses != 1 || st.FetchErrors != 0 {
		t.Errorf("counters: %+v", st)
	}
}

// TestPeerFetchRetries: a transient 500 is retried (with backoff) and
// the second attempt's success closes the matter — one logical fetch,
// one error counted, one hit.
func TestPeerFetchRetries(t *testing.T) {
	var calls atomic.Int64
	p, _ := testPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}), 2, time.Second)

	blob, found, err := p.Fetch("/cache/k")
	if err != nil || !found || string(blob) != "ok" {
		t.Fatalf("fetch: %q %v %v", blob, found, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	st := p.Status()
	if st.FetchHits != 1 || st.FetchErrors != 1 {
		t.Errorf("counters: %+v", st)
	}
}

// TestPeerTimeoutCounted: an attempt that exceeds the per-peer timeout
// lands in the timeout counter, and the retry budget bounds total wait.
func TestPeerTimeoutCounted(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p, _ := testPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}), 0, 30*time.Millisecond)

	start := time.Now()
	_, _, err := p.Fetch("/cache/slow")
	if err == nil {
		t.Fatal("fetch against a hung peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fetch took %v; timeout not enforced", elapsed)
	}
	if st := p.Status(); st.FetchTimeouts != 1 {
		t.Errorf("timeout not counted: %+v", st)
	}
}

// TestPeerBreakerFailsFast: after threshold consecutive fetch failures
// the breaker opens and further fetches are refused without touching
// the network.
func TestPeerBreakerFailsFast(t *testing.T) {
	var calls atomic.Int64
	p, _ := testPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}), 0, time.Second)

	for i := 0; i < 3; i++ {
		if _, _, err := p.Fetch("/cache/k"); err == nil {
			t.Fatal("fetch against erroring peer succeeded")
		}
	}
	before := calls.Load()
	if _, _, err := p.Fetch("/cache/k"); err != errBreakerOpen {
		t.Fatalf("breaker did not fail fast: %v", err)
	}
	if calls.Load() != before {
		t.Error("fast-failed fetch still hit the network")
	}
	if st := p.Status(); st.Breaker != BreakerOpen || st.BreakerDrops != 1 {
		t.Errorf("status: %+v", st)
	}
}

func TestPeerPush(t *testing.T) {
	var got atomic.Value
	p, _ := testPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Path == "/cache/k" {
			b := make([]byte, r.ContentLength)
			r.Body.Read(b)
			got.Store(string(b))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		http.NotFound(w, r)
	}), 0, time.Second)

	if err := p.Push(http.MethodPut, "/cache/k", "application/json", []byte("blob")); err != nil {
		t.Fatalf("push: %v", err)
	}
	if got.Load() != "blob" {
		t.Errorf("pushed body = %v", got.Load())
	}
	if st := p.Status(); st.Pushes != 1 || st.PushErrors != 0 {
		t.Errorf("counters: %+v", st)
	}
}

func TestClusterOwnershipAndSnapshot(t *testing.T) {
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.NotFound(w, r)
	}))
	defer ready.Close()

	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{ready.URL, "http://self:1"}, // self in the list is fine
		ProbeInterval: -1,                                   // probe by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Enabled() {
		t.Fatal("cluster with one remote peer not enabled")
	}
	if c.Bootstrapped() {
		t.Error("bootstrapped before the first probe round")
	}
	c.ProbeOnce()
	if !c.Bootstrapped() {
		t.Error("not bootstrapped after a probe round")
	}

	// Ownership is total: every key is owned by self or the one peer,
	// and both sides occur over enough keys.
	selfOwned, peerOwned := 0, 0
	for i := 0; i < 200; i++ {
		if p := c.Owner(keyN(i)); p == nil {
			selfOwned++
		} else if p.URL() != ready.URL {
			t.Fatalf("owner is neither self nor the peer: %s", p.URL())
		} else {
			peerOwned++
		}
	}
	if selfOwned == 0 || peerOwned == 0 {
		t.Errorf("degenerate ownership split: self=%d peer=%d", selfOwned, peerOwned)
	}

	snap := c.Snapshot()
	if snap == nil || len(snap.Nodes) != 2 || len(snap.Peers) != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if !snap.Peers[0].Ready || snap.Peers[0].LastProbeNS <= 0 {
		t.Errorf("peer status after probe: %+v", snap.Peers[0])
	}
}

func TestNilAndSingleNodeCluster(t *testing.T) {
	var nilC *Cluster
	if nilC.Enabled() || !nilC.Bootstrapped() || nilC.Snapshot() != nil || nilC.Self() != "" {
		t.Error("nil cluster semantics broken")
	}
	nilC.Close() // must not panic
	nilC.ProbeOnce()

	solo, err := New(Config{Self: "http://only"})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if solo.Enabled() || !solo.Bootstrapped() {
		t.Error("self-only cluster should be disabled and bootstrapped")
	}
	if p := solo.Owner(keyN(1)); p != nil {
		t.Errorf("self-only cluster has a remote owner: %s", p.URL())
	}
}

// TestProbeLoop runs the background probe loop, never ProbeOnce by hand:
// its first round bootstraps the ring and records each peer's readiness
// (a live /readyz, and an address nothing listens on), its ticker keeps
// probing, and Close stops it.
func TestProbeLoop(t *testing.T) {
	var probes atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		http.NotFound(w, r)
	}))
	defer live.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{live.URL, dead},
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !c.Bootstrapped() || probes.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: bootstrapped=%v, %d probes of the live peer", c.Bootstrapped(), probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.peers[live.URL].Status(); !st.Ready {
		t.Errorf("live peer: %+v", st)
	}
	if st := c.peers[dead].Status(); st.Ready || st.ProbeError == "" {
		t.Errorf("dead peer: %+v", st)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}
