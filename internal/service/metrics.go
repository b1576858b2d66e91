package service

import (
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/titan"
)

// metrics aggregates what the daemon has done since start: request
// counters, per-pass cumulative wall time folded from every compiled
// request's pass.Report, and a latency summary. The /metrics handler
// serves a consistent snapshot.
type metrics struct {
	mu       sync.Mutex
	start    time.Time
	compiles CompileCounters
	tuneCtrs TuneCounters
	batches  BatchCounters
	peerRej  int64
	maskCtrs MaskCounters
	passes   map[string]*PassTotals
	analysis analysis.Stats
	remarks  map[string]int64
	latency  LatencySummary
}

// CompileCounters counts request outcomes. CacheHits is the sum of the
// per-tier hit counters (memory, disk, inflight, remote); Total =
// CacheHits + CacheMisses + Errors + Rejected + RateLimited (timeouts
// are not an outcome — the compile a timed-out request started still
// completes and lands in Misses).
type CompileCounters struct {
	Total        int64 `json:"total"`
	CacheHits    int64 `json:"cache_hits"`
	MemoryHits   int64 `json:"memory_hits"`
	DiskHits     int64 `json:"disk_hits"`
	InflightHits int64 `json:"inflight_hits"` // joined an identical running compile
	RemoteHits   int64 `json:"remote_hits"`   // artifact fetched from the owning peer
	CacheMisses  int64 `json:"cache_misses"`
	Errors       int64 `json:"errors"`
	Panics       int64 `json:"panics"`       // errors that were a compile panic (a 500)
	Rejected     int64 `json:"rejected"`     // queue full
	RateLimited  int64 `json:"rate_limited"` // per-client token bucket said no
	Timeouts     int64 `json:"timeouts"`
	InFlight     int64 `json:"in_flight"` // gauge: units inside the compile path now
}

// BatchCounters tracks POST /compile/batch: how many batch requests
// arrived and how many translation units they carried (each unit also
// lands in CompileCounters like a single request would).
type BatchCounters struct {
	Batches int64 `json:"batches"`
	Units   int64 `json:"units"`
}

// TuneCounters tracks tuned plans. A tuned request either reuses a plan
// the store holds (ScheduleCacheHits), pulls one the owning peer already
// paid for (PlanRemoteHits), or pays for a fresh search (each completed
// search becomes one Tunes). Entries is the number of plans held now.
type TuneCounters struct {
	Tunes               int64 `json:"tunes"`
	ScheduleCacheHits   int64 `json:"schedule_cache_hits"`
	ScheduleCacheMisses int64 `json:"schedule_cache_misses"`
	PlanRemoteHits      int64 `json:"plan_remote_hits"`
	Entries             int   `json:"entries"`
}

// MaskCounters aggregates masked vector execution across every simulated
// run the daemon performed: Runs counts runs that retired at least one
// masked op, and LanesActive/LanesTotal give the fleet-wide mask-lane
// utilization (active/total; masked ops charge dense-timing cycles, so
// a low ratio flags workloads the branchy-serial strategy might serve
// better).
type MaskCounters struct {
	Runs        int64 `json:"runs"`
	Ops         int64 `json:"ops"`
	LanesActive int64 `json:"lanes_active"`
	LanesTotal  int64 `json:"lanes_total"`
}

// PassTotals is one pass's cumulative cost across every compile served.
type PassTotals struct {
	Runs    int64 `json:"runs"`
	TotalNS int64 `json:"total_ns"`
}

// LatencySummary summarizes end-to-end /compile latency (all outcomes
// that produced a response body, hits and misses alike).
type LatencySummary struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	MeanNS  int64 `json:"mean_ns"`
}

// MetricsResponse is the GET /metrics body.
type MetricsResponse struct {
	UptimeNS int64                 `json:"uptime_ns"`
	Compiles CompileCounters       `json:"compiles"`
	Cache    CacheStats            `json:"cache"`
	Catalogs int                   `json:"catalogs"`
	Passes   map[string]PassTotals `json:"passes"`
	// Analysis is the cumulative in-compile analysis-cache tally (use-def,
	// liveness, dependence graphs) summed over every real compile's report.
	Analysis analysis.Stats `json:"analysis"`
	// Remarks counts diagnostics by code across every real compile served
	// (cache hits replay the remarks stored with the artifact but do not
	// re-count them, mirroring the per-pass totals). The fleet-level view
	// of what the optimizer is deciding: how many loops vectorized, which
	// codes dominate the rejections.
	Remarks map[string]int64 `json:"remarks,omitempty"`
	// Tune is the autotuner's schedule-cache tally: a repeat tuned
	// request shows up as a schedule_cache_hit with tunes flat.
	Tune TuneCounters `json:"tune"`
	// Mask is the masked-execution tally over every simulated run.
	Mask MaskCounters `json:"mask"`
	// Batch tracks POST /compile/batch traffic.
	Batch   BatchCounters  `json:"batch"`
	Latency LatencySummary `json:"latency"`
	// Cluster is the node's ring and per-peer health/counter view,
	// omitted when the daemon runs single-node.
	Cluster *cluster.Snapshot `json:"cluster,omitempty"`
	// ArenaBytesLive is the process-wide gauge of IL arena bytes not yet
	// released. The compile path frees each compile's arenas as soon as
	// its artifact blob is encoded, so a value that tracks the number of
	// in-flight compiles is healthy and a monotonic climb is a leak.
	ArenaBytesLive int64 `json:"arena_bytes_live"`
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), passes: map[string]*PassTotals{}, remarks: map[string]int64{}}
}

func (m *metrics) begin() {
	m.mu.Lock()
	m.compiles.InFlight++
	m.mu.Unlock()
}

func (m *metrics) end() {
	m.mu.Lock()
	m.compiles.InFlight--
	m.mu.Unlock()
}

// hit records a request served without compiling, by tier (TierMemory,
// TierDisk, TierInflight, or TierRemote).
func (m *metrics) hit(tier string) {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.CacheHits++
	switch tier {
	case TierMemory:
		m.compiles.MemoryHits++
	case TierDisk:
		m.compiles.DiskHits++
	case TierInflight:
		m.compiles.InflightHits++
	case TierRemote:
		m.compiles.RemoteHits++
	}
	m.mu.Unlock()
}

// miss records one real compile, folding its pass report into the
// cumulative per-pass table. This is the only place pass time enters
// /metrics, which is what lets tests assert "a cache hit ran no pass":
// the per-pass totals are flat across a hit.
func (m *metrics) miss(rep *pass.Report) {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.CacheMisses++
	if rep != nil {
		for _, p := range rep.Passes {
			t := m.passes[p.Name]
			if t == nil {
				t = &PassTotals{}
				m.passes[p.Name] = t
			}
			t.Runs++
			t.TotalNS += p.Duration.Nanoseconds()
		}
		m.analysis.Add(rep.Analysis)
		for _, d := range rep.Diags {
			m.remarks[string(d.Code)]++
		}
	}
	m.mu.Unlock()
}

func (m *metrics) schedHit() {
	m.mu.Lock()
	m.tuneCtrs.ScheduleCacheHits++
	m.mu.Unlock()
}

func (m *metrics) schedMiss() {
	m.mu.Lock()
	m.tuneCtrs.ScheduleCacheMisses++
	m.mu.Unlock()
}

func (m *metrics) schedRemoteHit() {
	m.mu.Lock()
	m.tuneCtrs.PlanRemoteHits++
	m.mu.Unlock()
}

func (m *metrics) tuned() {
	m.mu.Lock()
	m.tuneCtrs.Tunes++
	m.mu.Unlock()
}

// maskRun folds one simulated run's masked-op tally into the fleet view
// (no-op for runs that retired no masked ops).
func (m *metrics) maskRun(r titan.Result) {
	if r.MaskOps == 0 {
		return
	}
	m.mu.Lock()
	m.maskCtrs.Runs++
	m.maskCtrs.Ops += r.MaskOps
	m.maskCtrs.LanesActive += r.MaskLanesActive
	m.maskCtrs.LanesTotal += r.MaskLanesTotal
	m.mu.Unlock()
}

func (m *metrics) batch(units int) {
	m.mu.Lock()
	m.batches.Batches++
	m.batches.Units += int64(units)
	m.mu.Unlock()
}

func (m *metrics) peerReject() {
	m.mu.Lock()
	m.peerRej++
	m.mu.Unlock()
}

func (m *metrics) rateLimited() {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.RateLimited++
	m.mu.Unlock()
}

func (m *metrics) failed() {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.Errors++
	m.mu.Unlock()
}

// panicked counts a unit whose compile panicked: an error, and a panic.
func (m *metrics) panicked() {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.Errors++
	m.compiles.Panics++
	m.mu.Unlock()
}

func (m *metrics) rejected() {
	m.mu.Lock()
	m.compiles.Total++
	m.compiles.Rejected++
	m.mu.Unlock()
}

func (m *metrics) timeout() {
	m.mu.Lock()
	m.compiles.Timeouts++
	m.mu.Unlock()
}

// meanLatency is the observed mean end-to-end latency (0 before any
// response); the queue-full 503 uses it to estimate Retry-After.
func (m *metrics) meanLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latency.Count == 0 {
		return 0
	}
	return time.Duration(m.latency.TotalNS / m.latency.Count)
}

func (m *metrics) observe(d time.Duration) {
	ns := d.Nanoseconds()
	m.mu.Lock()
	l := &m.latency
	l.Count++
	l.TotalNS += ns
	if l.MinNS == 0 || ns < l.MinNS {
		l.MinNS = ns
	}
	if ns > l.MaxNS {
		l.MaxNS = ns
	}
	m.mu.Unlock()
}

func (m *metrics) snapshot(cache CacheStats, clu *cluster.Snapshot) MetricsResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	passes := make(map[string]PassTotals, len(m.passes))
	for name, t := range m.passes {
		passes[name] = *t
	}
	var remarks map[string]int64
	if len(m.remarks) > 0 {
		remarks = make(map[string]int64, len(m.remarks))
		for code, n := range m.remarks {
			remarks[code] = n
		}
	}
	lat := m.latency
	if lat.Count > 0 {
		lat.MeanNS = lat.TotalNS / lat.Count
	}
	tc := m.tuneCtrs
	tc.Entries = cache.perKind[planKind]
	cache.PeerRejects = m.peerRej
	return MetricsResponse{
		UptimeNS:       time.Since(m.start).Nanoseconds(),
		Compiles:       m.compiles,
		Cache:          cache,
		Catalogs:       cache.perKind[catalogKind],
		Passes:         passes,
		Analysis:       m.analysis,
		Remarks:        remarks,
		Tune:           tc,
		Mask:           m.maskCtrs,
		Batch:          m.batches,
		Latency:        lat,
		Cluster:        clu,
		ArenaBytesLive: il.ArenaBytesLive(),
	}
}
