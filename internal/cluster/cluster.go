package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's advertised base URL (e.g. http://10.0.0.1:8344).
	// It identifies the node on the ring; peers reach it at this URL.
	Self string
	// Peers lists every cluster member's base URL. Self may or may not be
	// included — it is added to the ring either way and never dialed.
	Peers []string
	// FetchTimeout bounds each attempt against a peer (default 1s).
	FetchTimeout time.Duration
	// ProbeInterval paces background peer readiness probes (default 2s;
	// negative disables the background loop — tests probe by hand).
	ProbeInterval time.Duration
}

// How a node treats its peers: a failed attempt is retried peerRetries
// more times, with jittered exponential backoff between them;
// breakerThreshold consecutive failures open a peer's circuit breaker,
// which fails fast for breakerCooldown before letting a half-open probe
// through.
const (
	peerRetries      = 1
	breakerThreshold = 3
	breakerCooldown  = 3 * time.Second
)

func (c Config) withDefaults() Config {
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// Cluster is one node's membership: the shared ring plus a client for
// every remote peer. A nil *Cluster is valid and means "single node":
// every ownership query answers self and the remote tier is skipped.
type Cluster struct {
	self  string
	ring  *Ring
	peers map[string]*Peer // keyed by advertised URL; excludes self

	bootstrapped atomic.Bool
	stop         chan struct{}
	stopped      chan struct{}
}

// New builds the node's cluster view and, when cfg.ProbeInterval >= 0,
// starts the background probe loop. The ring counts as bootstrapped
// once the first full probe round has completed (immediately when there
// are no remote peers), which is what /readyz gates on.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self URL is required")
	}
	nodes := append([]string{cfg.Self}, cfg.Peers...)
	for i, n := range nodes {
		nodes[i] = strings.TrimRight(n, "/")
	}
	ring, err := NewRing(nodes, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		self:  strings.TrimRight(cfg.Self, "/"),
		ring:  ring,
		peers: map[string]*Peer{},
		stop:  make(chan struct{}),
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 32, IdleConnTimeout: 30 * time.Second}
	for _, n := range ring.Nodes() {
		if n == c.self {
			continue
		}
		c.peers[n] = &Peer{
			url:     n,
			client:  &http.Client{Transport: transport},
			breaker: newBreaker(breakerThreshold, breakerCooldown),
			timeout: cfg.FetchTimeout,
			retries: peerRetries,
		}
	}
	if len(c.peers) == 0 {
		c.bootstrapped.Store(true)
	}
	if cfg.ProbeInterval >= 0 && len(c.peers) > 0 {
		c.stopped = make(chan struct{})
		go c.probeLoop(cfg.ProbeInterval)
	}
	// With the loop disabled (negative interval) the caller drives
	// ProbeOnce by hand and bootstrap completes on the first call.
	return c, nil
}

// probeLoop runs readiness probes forever: one immediate round (which
// completes the bootstrap), then one per interval until Close.
func (c *Cluster) probeLoop(interval time.Duration) {
	defer close(c.stopped)
	c.ProbeOnce()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeOnce()
		}
	}
}

// ProbeOnce probes every peer's /readyz concurrently, waits for the
// round to finish, and marks the ring bootstrapped. Exported for tests
// and for callers that disabled the background loop.
func (c *Cluster) ProbeOnce() {
	if c == nil {
		return
	}
	done := make(chan struct{}, len(c.peers))
	for _, p := range c.peers {
		go func(p *Peer) {
			p.probe()
			done <- struct{}{}
		}(p)
	}
	for range c.peers {
		<-done
	}
	c.bootstrapped.Store(true)
}

// Close stops the background probe loop. Safe on nil.
func (c *Cluster) Close() {
	if c == nil || c.stopped == nil {
		return
	}
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.stopped
}

// Enabled reports whether there is at least one remote peer. A nil
// cluster and a self-only cluster both answer false — the service takes
// the pure single-node path.
func (c *Cluster) Enabled() bool { return c != nil && len(c.peers) > 0 }

// Bootstrapped reports whether the first probe round has completed.
// Readiness gates on this so load balancers don't route to a node whose
// view of peer health is still empty. Nil and self-only clusters are
// born bootstrapped.
func (c *Cluster) Bootstrapped() bool { return c == nil || c.bootstrapped.Load() }

// Owner returns the peer that owns key, or nil when this node does
// (or when clustering is off).
func (c *Cluster) Owner(key string) *Peer {
	if !c.Enabled() {
		return nil
	}
	return c.peers[c.ring.Owner(key)] // nil when the owner is self
}

// OwnerOrder returns the remote peers to try for key in ring preference
// order, excluding self. First entry is the owner when it is remote.
func (c *Cluster) OwnerOrder(key string) []*Peer {
	if !c.Enabled() {
		return nil
	}
	nodes := c.ring.OwnerOrder(key)
	out := make([]*Peer, 0, len(nodes))
	for _, n := range nodes {
		if p := c.peers[n]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Self returns this node's advertised URL ("" when clustering is off).
func (c *Cluster) Self() string {
	if c == nil {
		return ""
	}
	return c.self
}

// Snapshot is the /metrics cluster section.
type Snapshot struct {
	Self         string       `json:"self"`
	Nodes        []string     `json:"nodes"`
	VirtualNodes int          `json:"virtual_nodes"`
	Bootstrapped bool         `json:"bootstrapped"`
	Peers        []PeerStatus `json:"peers"`
}

// Snapshot captures ring state and per-peer health/counters. Returns
// nil on a nil or single-node cluster so /metrics omits the section
// when clustering is off.
func (c *Cluster) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Self:         c.self,
		Nodes:        c.ring.Nodes(),
		VirtualNodes: c.ring.VirtualNodes(),
		Bootstrapped: c.Bootstrapped(),
	}
	for _, p := range c.peers {
		s.Peers = append(s.Peers, p.Status())
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].URL < s.Peers[j].URL })
	return s
}
