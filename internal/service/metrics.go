package service

// Live observability for the resident service. The admission controller has
// counted outcomes since PR 6, but only surfaced them at shutdown — useless
// for operating a resident process. This file gives the service a metrics
// registry in the spirit of the paper: per-tenant admission outcomes, queue
// waits, and end-to-end analysis latencies recorded into lock-cheap
// histograms on the request path, snapshot on demand by the /metrics endpoint
// (http.go), loadgen -scrape, cosytop, and the CI soak gate.

import (
	"sync"
	"time"

	"repro/internal/godbc"
	"repro/internal/metrics"
)

// Metrics is the service's instrumentation registry: one TenantMetrics per
// tenant name ever seen, created on first use. Safe for concurrent use; the
// per-request path after the first request of a tenant is an RLock and a map
// lookup.
type Metrics struct {
	start time.Time

	mu      sync.RWMutex
	tenants map[string]*TenantMetrics
}

// NewMetrics returns an empty registry; the uptime clock starts now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), tenants: make(map[string]*TenantMetrics)}
}

// TenantMetrics holds one tenant's counters and histograms. Fields are
// recorded by Service.Analyze and read via Snapshot.
type TenantMetrics struct {
	// Admission outcomes, mirroring AdmissionStats per tenant: Admitted got
	// capacity (Queued counts the subset that waited first), Shed lost its
	// context while waiting, Rejected bounced off the full queue.
	Admitted metrics.Counter
	Queued   metrics.Counter
	Shed     metrics.Counter
	Rejected metrics.Counter
	// Completed/Canceled/Failed classify admitted analyses by how they ended:
	// a report, a canceled context, or an analysis error.
	Completed metrics.Counter
	Canceled  metrics.Counter
	Failed    metrics.Counter
	// InFlight is the tenant's currently admitted analyses.
	InFlight metrics.Gauge
	// QueueWait observes time from arrival to admission (tiny when capacity
	// was free); Latency observes end-to-end time of completed analyses,
	// queue wait included — the latency the tenant's user experienced.
	QueueWait *metrics.Histogram
	Latency   *metrics.Histogram
}

// Tenant returns the tenant's metrics, creating them on first use.
func (m *Metrics) Tenant(name string) *TenantMetrics {
	m.mu.RLock()
	tm := m.tenants[name]
	m.mu.RUnlock()
	if tm != nil {
		return tm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if tm := m.tenants[name]; tm != nil {
		return tm
	}
	tm = &TenantMetrics{
		QueueWait: metrics.MustHistogram(),
		Latency:   metrics.MustHistogram(),
	}
	m.tenants[name] = tm
	return tm
}

// TenantSnapshot is the JSON shape of one tenant's metrics.
type TenantSnapshot struct {
	Admitted  int64                     `json:"admitted"`
	Queued    int64                     `json:"queued"`
	Shed      int64                     `json:"shed"`
	Rejected  int64                     `json:"rejected"`
	Completed int64                     `json:"completed"`
	Canceled  int64                     `json:"canceled"`
	Failed    int64                     `json:"failed"`
	InFlight  int64                     `json:"in_flight"`
	QueueWait metrics.HistogramSnapshot `json:"queue_wait"`
	Latency   metrics.HistogramSnapshot `json:"latency"`
}

// Snapshot captures every tenant's metrics.
func (m *Metrics) Snapshot() map[string]TenantSnapshot {
	m.mu.RLock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	m.mu.RUnlock()
	out := make(map[string]TenantSnapshot, len(names))
	for _, name := range names {
		tm := m.Tenant(name)
		out[name] = TenantSnapshot{
			Admitted:  tm.Admitted.Value(),
			Queued:    tm.Queued.Value(),
			Shed:      tm.Shed.Value(),
			Rejected:  tm.Rejected.Value(),
			Completed: tm.Completed.Value(),
			Canceled:  tm.Canceled.Value(),
			Failed:    tm.Failed.Value(),
			InFlight:  tm.InFlight.Value(),
			QueueWait: tm.QueueWait.Snapshot(),
			Latency:   tm.Latency.Snapshot(),
		}
	}
	return out
}

// Uptime reports how long the registry (and so the service) has been up.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// MetricsSnapshot is the complete observable state of a cosyd process — the
// JSON document GET /metrics returns. Sections that do not apply to the
// deployment (no pool when embedded, no mux without a MuxConn) are omitted
// rather than zeroed.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining is true once shutdown began; /healthz turns 503 with it.
	Draining bool `json:"draining"`
	// Goroutines and Conns are the drift signals the CI soak gate watches:
	// after a drained load run they must return to their pre-load level.
	Goroutines int `json:"goroutines"`
	Conns      int `json:"conns"`

	Admission AdmissionStats            `json:"admission"`
	Tenants   map[string]TenantSnapshot `json:"tenants"`

	// Pools reports connection-pool stats, one entry per backend shard (a
	// single-backend service has one). Mux reports multiplexed-connection
	// stats when the executor is a MuxConn.
	Pools []godbc.PoolStats `json:"pools,omitempty"`
	Mux   *godbc.MuxStats   `json:"mux,omitempty"`

	// Backend carries the database engine's own counters (vectorized
	// selects and fallbacks, plan cache, cumulative vendor cost) and Cache
	// the result-cache counters, when the executor can report them.
	Backend *godbc.ServerStats `json:"backend,omitempty"`
	Cache   *godbc.CacheStats  `json:"cache,omitempty"`
}

// MetricsSnapshot assembles the service-level sections of the snapshot:
// uptime, admission counters, per-tenant metrics, and whatever the executor
// can report about pools, multiplexing, the engine, and the result cache.
// The server-level fields (Draining, Conns, Goroutines) are filled by
// Server.MetricsSnapshot.
func (s *Service) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: s.met.Uptime().Seconds(),
		Admission:     s.adm.Stats(),
		Tenants:       s.met.Snapshot(),
	}
	switch q := s.q.(type) {
	case interface{ Metrics() godbc.PoolStats }:
		snap.Pools = []godbc.PoolStats{q.Metrics()}
	case interface{ PoolMetrics() []godbc.PoolStats }:
		snap.Pools = q.PoolMetrics()
	}
	if mx, ok := s.q.(interface{ Metrics() godbc.MuxStats }); ok {
		ms := mx.Metrics()
		snap.Mux = &ms
	}
	if bs, ok := s.q.(interface {
		ServerStats() (godbc.ServerStats, bool, error)
	}); ok {
		if st, _, err := bs.ServerStats(); err == nil {
			snap.Backend = &st
		}
	}
	if cs, ok := s.q.(interface {
		CacheStats() (godbc.CacheStats, bool, error)
	}); ok {
		if st, _, err := cs.CacheStats(); err == nil {
			snap.Cache = &st
		}
	}
	return snap
}

// Metrics exposes the service's registry (for tests and benchmarks).
func (s *Service) Metrics() *Metrics { return s.met }
