package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/memo"
)

// latencyBuckets are the histogram upper bounds in seconds (a decade
// ladder from 1 ms to 60 s; +Inf is implicit).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram with quantile
// estimation by linear interpolation inside the hit bucket.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	inf    uint64
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram over latencyBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(latencyBuckets))}
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	h.mu.Lock()
	h.sum += s
	h.n++
	placed := false
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.mu.Unlock()
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds; 0 when
// empty. Samples beyond the last bucket report the last upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum uint64
	lower := 0.0
	for i, c := range h.counts {
		if c == 0 {
			lower = latencyBuckets[i]
			continue
		}
		next := cum + c
		if float64(next) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(latencyBuckets[i]-lower)
		}
		cum = next
		lower = latencyBuckets[i]
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// snapshot returns (bucket counts, inf count, sum, n) under the lock.
func (h *Histogram) snapshot() ([]uint64, uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.inf, h.sum, h.n
}

// Metrics is the server's observability state: per-endpoint request
// counters, request latency histograms (end-to-end and pipeline
// execution), and running totals of the work served per session
// (cycles, comm messages, samples).
type Metrics struct {
	mu        sync.Mutex
	requests  map[string]uint64 // by endpoint
	errors    map[string]uint64
	sheds     map[string]uint64 // load-shedding, by reason (draining | queue_full | closed)
	Latency   *Histogram        // end-to-end submit→done
	RunTime   *Histogram        // pipeline execution only (cache misses)
	cycles    uint64            // total simulated cycles served (incl. cached replays)
	commMsgs  uint64
	samples   uint64
	executed  uint64
	served    uint64
	byState   map[State]uint64
	startedAt time.Time

	// Inspector–executor totals (comm.Stats counters, summed over served
	// sessions that ran with the inspector enabled).
	inspBuilds   uint64
	schedHits    uint64
	replicatedVs uint64
}

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:  make(map[string]uint64),
		errors:    make(map[string]uint64),
		sheds:     make(map[string]uint64),
		Latency:   NewHistogram(),
		RunTime:   NewHistogram(),
		byState:   make(map[State]uint64),
		startedAt: time.Now(),
	}
}

// IncRequest counts one HTTP request against an endpoint label.
func (m *Metrics) IncRequest(endpoint string) {
	m.mu.Lock()
	m.requests[endpoint]++
	m.mu.Unlock()
}

// IncError counts one failed HTTP request.
func (m *Metrics) IncError(endpoint string) {
	m.mu.Lock()
	m.errors[endpoint]++
	m.mu.Unlock()
}

// Shed counts one load-shed submission by reason.
func (m *Metrics) Shed(reason string) {
	m.mu.Lock()
	m.sheds[reason]++
	m.mu.Unlock()
}

// SessionDone records a finished session and the outcome it was served
// (cached replays count toward the served totals too: the point is how
// much simulated work clients received).
func (m *Metrics) SessionDone(state State, out *Outcome, e2e time.Duration) {
	m.mu.Lock()
	m.byState[state]++
	m.served++
	if out != nil {
		m.cycles += out.Stats.TotalCycles
		m.commMsgs += out.Stats.CommMessages
		m.samples += uint64(out.Samples)
		if agg := out.Stats.Agg; agg != nil {
			m.inspBuilds += uint64(agg.InspectorBuilds)
			m.schedHits += uint64(agg.ScheduleHits)
			m.replicatedVs += uint64(agg.ReplicatedVars)
		}
	}
	m.mu.Unlock()
	m.Latency.Observe(e2e)
}

// Executed records one pipeline execution (a cache miss that ran).
func (m *Metrics) Executed(wall time.Duration) {
	m.mu.Lock()
	m.executed++
	m.mu.Unlock()
	m.RunTime.Observe(wall)
}

// MetricsSnapshot is the JSON form of /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Requests      map[string]uint64     `json:"requests"`
	Errors        map[string]uint64     `json:"errors,omitempty"`
	Sessions      map[string]uint64     `json:"sessions"`
	Served        uint64                `json:"served"`
	Executed      uint64                `json:"executed"`
	LatencyP50Ms  float64               `json:"latency_p50_ms"`
	LatencyP95Ms  float64               `json:"latency_p95_ms"`
	LatencyP99Ms  float64               `json:"latency_p99_ms"`
	RunP99Ms      float64               `json:"run_p99_ms"`
	Cycles        uint64                `json:"cycles_total"`
	CommMessages  uint64                `json:"comm_messages_total"`
	Samples       uint64                `json:"samples_total"`
	InspBuilds    uint64                `json:"inspector_builds_total"`
	SchedHits     uint64                `json:"schedule_hits_total"`
	ReplicatedVs  uint64                `json:"replicated_vars_total"`
	Cache         memo.Stats            `json:"cache"`
	CacheHitRate  float64               `json:"cache_hit_rate"`
	Sched         SchedStats            `json:"scheduler"`
	Shed          map[string]uint64     `json:"shed,omitempty"`
	Draining      bool                  `json:"draining"`
	Journal       JournalStats          `json:"journal"`
	Memo          map[string]memo.Stats `json:"memo"`
	Aux           map[string]float64    `json:"aux,omitempty"`
}

// MetricsAux carries server-level resilience state into the rendering:
// the drain flag, the journal counters, the per-stage counters of
// memo.Shared, and any extra gauges the host process registers (the
// runner supervisor's counters in cmd/blamed).
type MetricsAux struct {
	Draining bool
	Journal  JournalStats
	Memo     map[string]memo.Stats
	Extra    map[string]float64
}

// Snapshot assembles the JSON metrics view.
func (m *Metrics) Snapshot(cache memo.Stats, sched SchedStats, aux MetricsAux) MetricsSnapshot {
	m.mu.Lock()
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.startedAt).Seconds(),
		Requests:      make(map[string]uint64, len(m.requests)),
		Errors:        make(map[string]uint64, len(m.errors)),
		Shed:          make(map[string]uint64, len(m.sheds)),
		Sessions:      make(map[string]uint64, len(m.byState)),
		Served:        m.served,
		Executed:      m.executed,
		Cycles:        m.cycles,
		CommMessages:  m.commMsgs,
		Samples:       m.samples,
		InspBuilds:    m.inspBuilds,
		SchedHits:     m.schedHits,
		ReplicatedVs:  m.replicatedVs,
	}
	for k, v := range m.requests {
		snap.Requests[k] = v
	}
	for k, v := range m.errors {
		snap.Errors[k] = v
	}
	for k, v := range m.sheds {
		snap.Shed[k] = v
	}
	for k, v := range m.byState {
		snap.Sessions[string(k)] = v
	}
	m.mu.Unlock()
	snap.LatencyP50Ms = m.Latency.Quantile(0.50) * 1000
	snap.LatencyP95Ms = m.Latency.Quantile(0.95) * 1000
	snap.LatencyP99Ms = m.Latency.Quantile(0.99) * 1000
	snap.RunP99Ms = m.RunTime.Quantile(0.99) * 1000
	snap.Cache = cache
	snap.CacheHitRate = cache.HitRate()
	snap.Sched = sched
	snap.Draining = aux.Draining
	snap.Journal = aux.Journal
	snap.Memo = aux.Memo
	snap.Aux = aux.Extra
	return snap
}

// Render writes the Prometheus-style text exposition of /metrics.
func (m *Metrics) Render(cache memo.Stats, sched SchedStats, aux MetricsAux) string {
	snap := m.Snapshot(cache, sched, aux)
	var b strings.Builder
	fmt.Fprintf(&b, "blamed_uptime_seconds %.3f\n", snap.UptimeSeconds)
	writeLabeled(&b, "blamed_requests_total", "endpoint", snap.Requests)
	writeLabeled(&b, "blamed_request_errors_total", "endpoint", snap.Errors)
	writeLabeled(&b, "blamed_sessions_total", "state", snap.Sessions)
	fmt.Fprintf(&b, "blamed_sessions_served_total %d\n", snap.Served)
	fmt.Fprintf(&b, "blamed_pipeline_executions_total %d\n", snap.Executed)
	fmt.Fprintf(&b, "blamed_queue_depth %d\n", sched.QueueDepth)
	fmt.Fprintf(&b, "blamed_jobs_running %d\n", sched.Running)
	fmt.Fprintf(&b, "blamed_workers %d\n", sched.Workers)
	fmt.Fprintf(&b, "blamed_jobs_coalesced_total %d\n", sched.Coalesced)
	fmt.Fprintf(&b, "blamed_sessions_expired_total %d\n", sched.Expired)
	fmt.Fprintf(&b, "blamed_queue_cap %d\n", sched.QueueCap)
	writeLabeled(&b, "blamed_shed_total", "reason", snap.Shed)
	draining := 0
	if snap.Draining {
		draining = 1
	}
	fmt.Fprintf(&b, "blamed_draining %d\n", draining)
	journalOn := 0
	if snap.Journal.Enabled {
		journalOn = 1
	}
	fmt.Fprintf(&b, "blamed_journal_enabled %d\n", journalOn)
	fmt.Fprintf(&b, "blamed_journal_appended_total %d\n", snap.Journal.Appended)
	fmt.Fprintf(&b, "blamed_journal_replayed_total %d\n", snap.Journal.Replayed)
	fmt.Fprintf(&b, "blamed_journal_truncated_bytes %d\n", snap.Journal.Truncated)
	fmt.Fprintf(&b, "blamed_journal_bytes %d\n", snap.Journal.Bytes)
	fmt.Fprintf(&b, "blamed_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(&b, "blamed_cache_bytes %d\n", cache.Bytes)
	fmt.Fprintf(&b, "blamed_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(&b, "blamed_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(&b, "blamed_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(&b, "blamed_cache_hit_rate %.4f\n", snap.CacheHitRate)
	stages := make([]string, 0, len(snap.Memo))
	for stage := range snap.Memo {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		st := snap.Memo[stage]
		fmt.Fprintf(&b, "blamed_memo_entries{stage=%q} %d\n", stage, st.Entries)
		fmt.Fprintf(&b, "blamed_memo_bytes{stage=%q} %d\n", stage, st.Bytes)
		fmt.Fprintf(&b, "blamed_memo_hits_total{stage=%q} %d\n", stage, st.Hits)
		fmt.Fprintf(&b, "blamed_memo_misses_total{stage=%q} %d\n", stage, st.Misses)
		fmt.Fprintf(&b, "blamed_memo_evictions_total{stage=%q} %d\n", stage, st.Evictions)
	}
	fmt.Fprintf(&b, "blamed_session_cycles_total %d\n", snap.Cycles)
	fmt.Fprintf(&b, "blamed_session_comm_messages_total %d\n", snap.CommMessages)
	fmt.Fprintf(&b, "blamed_session_samples_total %d\n", snap.Samples)
	fmt.Fprintf(&b, "blamed_session_inspector_builds_total %d\n", snap.InspBuilds)
	fmt.Fprintf(&b, "blamed_session_schedule_hits_total %d\n", snap.SchedHits)
	fmt.Fprintf(&b, "blamed_session_replicated_vars_total %d\n", snap.ReplicatedVs)
	auxKeys := make([]string, 0, len(snap.Aux))
	for k := range snap.Aux {
		auxKeys = append(auxKeys, k)
	}
	sort.Strings(auxKeys)
	for _, k := range auxKeys {
		fmt.Fprintf(&b, "blamed_%s %g\n", k, snap.Aux[k])
	}
	renderHist(&b, "blamed_request_seconds", m.Latency)
	renderHist(&b, "blamed_run_seconds", m.RunTime)
	return b.String()
}

func writeLabeled(b *strings.Builder, name, label string, vals map[string]uint64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}

func renderHist(b *strings.Builder, name string, h *Histogram) {
	counts, inf, sum, n := h.snapshot()
	var cum uint64
	for i, c := range counts {
		cum += c
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, latencyBuckets[i], cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum+inf)
	fmt.Fprintf(b, "%s_sum %.6f\n", name, sum)
	fmt.Fprintf(b, "%s_count %d\n", name, n)
}
