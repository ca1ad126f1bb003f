package server

import (
	"net/http"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/lru"
	"xqindep/internal/obs"
)

// Metric family names, all in one place so the operations reference in
// the README can be checked against reality (scripts/ci.sh greps every
// xqindep_ name the docs mention against this file). Units follow the
// Prometheus conventions: latencies in seconds, counts unitless,
// _total suffix on monotonic counters.
const (
	// Request-path families, recorded by the handler per request.
	MetricRequestLatency = "xqindep_request_latency_seconds"
	MetricRungLatency    = "xqindep_rung_latency_seconds"
	MetricRequests       = "xqindep_requests_total"
	MetricVerdicts       = "xqindep_verdicts_total"
	MetricPlanRequests   = "xqindep_plan_requests_total"

	// Pool and breaker families, bridged from the server counters.
	MetricPoolAdmitted  = "xqindep_pool_admitted_total"
	MetricPoolShed      = "xqindep_pool_shed_total"
	MetricPoolMemShed   = "xqindep_pool_mem_shed_total"
	MetricPoolRejected  = "xqindep_pool_rejected_total"
	MetricPoolCompleted = "xqindep_pool_completed_total"
	MetricPoolDegraded  = "xqindep_pool_degraded_total"
	MetricPoolFailed    = "xqindep_pool_failed_total"
	MetricPoolPanics    = "xqindep_pool_panics_total"
	MetricPoolInflight  = "xqindep_pool_inflight"
	MetricBreakerTrips  = "xqindep_breaker_trips_total"
	MetricBreakerReject = "xqindep_breaker_rejected_total"
	MetricBreakerProbes = "xqindep_breaker_probes_total"

	// Cache families, bridged from the compile, plan and update tiers'
	// stats: one series per tier, labelled tier="compile", tier="plan"
	// or tier="update" (the plan cache's update-side tier).
	MetricCacheHits           = "xqindep_cache_hits_total"
	MetricCacheMisses         = "xqindep_cache_misses_total"
	MetricCacheEvictions      = "xqindep_cache_evictions_total"
	MetricCachePurges         = "xqindep_cache_purges_total"
	MetricCacheVerifyFailures = "xqindep_cache_verify_failures_total"
	MetricCacheResident       = "xqindep_cache_resident"

	// Containment families, bridged from the quarantine registry.
	MetricQuarantineTrips      = "xqindep_quarantine_trips_total"
	MetricQuarantineDowngrades = "xqindep_quarantine_downgrades_total"
	MetricQuarantineRecovered  = "xqindep_quarantine_recovered_total"
	MetricQuarantined          = "xqindep_quarantined"

	// Audit families, bridged from the sentinel auditor (registered
	// only when an auditor is wired).
	MetricAuditObserved      = "xqindep_audit_observed_total"
	MetricAuditSampled       = "xqindep_audit_sampled_total"
	MetricAuditDropped       = "xqindep_audit_dropped_total"
	MetricAuditCompleted     = "xqindep_audit_completed_total"
	MetricAuditDisagreements = "xqindep_audit_disagreements_total"
	MetricAuditPending       = "xqindep_audit_pending"

	// Trace-ring families (registered only when the ring is on).
	MetricTraceRingAdded   = "xqindep_trace_ring_added_total"
	MetricTraceRingEvicted = "xqindep_trace_ring_evicted_total"
)

// Request outcome label values of MetricRequests.
const (
	outcomeLabelOK          = "ok"
	outcomeLabelDegraded    = "degraded"
	outcomeLabelBadRequest  = "bad_request"
	outcomeLabelShed        = "shed"
	outcomeLabelUnavailable = "unavailable"
	outcomeLabelInternal    = "internal"
)

// handlerMetrics holds the handler's pre-registered instruments. The
// per-request hot path only touches them through map lookups on
// constant keys and atomic adds — no allocation, safe for concurrent
// requests (pinned by TestRecordAllocFreeAndConcurrent).
type handlerMetrics struct {
	reg      *obs.Registry
	latency  *obs.Histogram
	rungs    map[string]*obs.Histogram
	outcomes map[string]*obs.Counter
	verdicts map[string]*obs.Counter
	plans    map[string]*obs.Counter
}

// newHandlerMetrics registers the request-path families plus the
// bridges from every existing Stats snapshot (pool, breakers, caches,
// quarantine, audit) into reg. Bridged values are collected at scrape
// time by calling the snapshot, so there is no double bookkeeping and
// /metricz can never disagree with /statz.
func newHandlerMetrics(reg *obs.Registry, s *Server) *handlerMetrics {
	m := &handlerMetrics{
		reg: reg,
		latency: reg.Histogram(MetricRequestLatency,
			"End-to-end analyze latency in seconds (parse, queue, verdict).",
			obs.DefLatencyBuckets),
		rungs:    make(map[string]*obs.Histogram),
		outcomes: make(map[string]*obs.Counter, 6),
		verdicts: make(map[string]*obs.Counter, 2),
		plans:    make(map[string]*obs.Counter, 2),
	}
	// One MetricRungLatency series per ladder rung, labelled with its
	// method's name and registered up front, so /metricz output is
	// stable from the first scrape.
	for r := core.MethodChains; r <= core.MethodConservative; r++ {
		m.rungs[r.String()] = reg.Histogram(MetricRungLatency,
			"Analyze latency in seconds by the ladder rung that produced the verdict.",
			obs.DefLatencyBuckets, "rung", r.String())
	}
	for _, o := range []string{
		outcomeLabelOK, outcomeLabelDegraded, outcomeLabelBadRequest,
		outcomeLabelShed, outcomeLabelUnavailable, outcomeLabelInternal,
	} {
		m.outcomes[o] = reg.Counter(MetricRequests,
			"Analyze requests by outcome.", "outcome", o)
	}
	for _, v := range []string{"independent", "dependent"} {
		m.verdicts[v] = reg.Counter(MetricVerdicts,
			"Verdicts served, by answer. Independent verdicts are proofs; dependent includes every conservative downgrade.",
			"verdict", v)
	}
	for _, p := range []string{"warm", "cold"} {
		m.plans[p] = reg.Counter(MetricPlanRequests,
			"Chain-rung verdicts by prepared-plan provenance (warm = plan cache hit).",
			"provenance", p)
	}

	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	reg.CounterFunc(MetricPoolAdmitted, "Requests admitted by the pool.", stat(func(st Stats) float64 { return float64(st.Admitted) }))
	reg.CounterFunc(MetricPoolShed, "Requests shed by admission control (every admission place taken, or memory watermark).", stat(func(st Stats) float64 { return float64(st.Shed) }))
	reg.CounterFunc(MetricPoolMemShed, "Of the shed requests, those rejected by the memory watermark.", stat(func(st Stats) float64 { return float64(st.MemShed) }))
	reg.CounterFunc(MetricPoolRejected, "Requests rejected while draining or closed.", stat(func(st Stats) float64 { return float64(st.Rejected) }))
	reg.CounterFunc(MetricPoolCompleted, "Analyses finished, any outcome.", stat(func(st Stats) float64 { return float64(st.Completed) }))
	reg.CounterFunc(MetricPoolDegraded, "Completed analyses whose verdict came from a weaker ladder rung.", stat(func(st Stats) float64 { return float64(st.Degraded) }))
	reg.CounterFunc(MetricPoolFailed, "Completed analyses that returned an error.", stat(func(st Stats) float64 { return float64(st.Failed) }))
	reg.CounterFunc(MetricPoolPanics, "Panics converted to internal errors (engine or serving glue).", stat(func(st Stats) float64 { return float64(st.Panics) }))
	reg.GaugeFunc(MetricPoolInflight, "Requests admitted but not yet completed.", stat(func(st Stats) float64 { return float64(st.InFlight) }))
	reg.CounterFunc(MetricBreakerTrips, "Per-schema circuit breaker closed/half-open to open transitions.", stat(func(st Stats) float64 { return float64(st.BreakerTrips) }))
	reg.CounterFunc(MetricBreakerReject, "Requests served a conservative verdict because the schema breaker was open.", stat(func(st Stats) float64 { return float64(st.BreakerRejected) }))
	reg.CounterFunc(MetricBreakerProbes, "Half-open breaker probes admitted.", stat(func(st Stats) float64 { return float64(st.BreakerProbes) }))

	plans := s.cfg.Plans
	tiers := []struct {
		name  string
		stats func() lru.Stats
	}{
		{"compile", func() lru.Stats { return dtd.CompileCacheStats().Stats }},
		{"plan", func() lru.Stats { st, _ := plans.TierStats(); return st }},
		{"update", func() lru.Stats { _, st := plans.TierStats(); return st }},
	}
	for _, t := range tiers {
		cs := func(f func(lru.Stats) int64) func() float64 {
			return func() float64 { return float64(f(t.stats())) }
		}
		reg.CounterFunc(MetricCacheHits, "Cache hits (a verified resident was served), by tier.", cs(func(st lru.Stats) int64 { return st.Hits }), "tier", t.name)
		reg.CounterFunc(MetricCacheMisses, "Cache misses (the tier built: a schema compilation, a plan inference or an update inference), by tier.", cs(func(st lru.Stats) int64 { return st.Misses }), "tier", t.name)
		reg.CounterFunc(MetricCacheEvictions, "LRU evictions, by tier.", cs(func(st lru.Stats) int64 { return st.Evictions }), "tier", t.name)
		reg.CounterFunc(MetricCachePurges, "Residents purged by quarantine containment, by tier.", cs(func(st lru.Stats) int64 { return st.Purges }), "tier", t.name)
		reg.CounterFunc(MetricCacheVerifyFailures, "Hits whose resident failed verification and was rebuilt, by tier.", cs(func(st lru.Stats) int64 { return st.VerifyFailures }), "tier", t.name)
		reg.GaugeFunc(MetricCacheResident, "Residents currently cached, by tier.", cs(func(st lru.Stats) int64 { return st.Resident }), "tier", t.name)
	}

	quar := s.cfg.Quarantine
	reg.CounterFunc(MetricQuarantineTrips, "Schema fingerprints placed in quarantine after an audit disagreement.", func() float64 { return float64(quar.Stats().Trips) })
	reg.CounterFunc(MetricQuarantineDowngrades, "Verdicts served conservatively because the schema was quarantined.", func() float64 { return float64(quar.Stats().Downgrades) })
	reg.CounterFunc(MetricQuarantineRecovered, "Quarantined fingerprints released after clean retrials.", func() float64 { return float64(quar.Stats().Recovered) })
	reg.GaugeFunc(MetricQuarantined, "Schema fingerprints currently quarantined.", func() float64 { return float64(quar.Stats().Quarantined) })

	if a := s.cfg.Auditor; a != nil {
		reg.CounterFunc(MetricAuditObserved, "Completed analyses offered to the audit sampler.", func() float64 { return float64(a.Stats().Observed) })
		reg.CounterFunc(MetricAuditSampled, "Observations accepted into the audit queue.", func() float64 { return float64(a.Stats().Sampled) })
		reg.CounterFunc(MetricAuditDropped, "Observations dropped because the audit queue was full.", func() float64 { return float64(a.Stats().Dropped) })
		reg.CounterFunc(MetricAuditCompleted, "Audits completed against the dynamic oracle.", func() float64 { return float64(a.Stats().Audited) })
		reg.CounterFunc(MetricAuditDisagreements, "Audits where the oracle contradicted an Independent verdict.", func() float64 { return float64(a.Stats().Disagreements) })
		reg.GaugeFunc(MetricAuditPending, "Sampled observations waiting for an audit worker (audit lag).", func() float64 {
			st := a.Stats()
			if lag := st.Sampled - st.Dropped - st.Audited; lag > 0 {
				return float64(lag)
			}
			return 0
		})
	}
	return m
}

// registerRing adds the trace-ring families once the ring exists.
func (m *handlerMetrics) registerRing(ring *obs.SlowRing) {
	m.reg.CounterFunc(MetricTraceRingAdded, "Finished traces offered to the slow-trace ring.", func() float64 { return float64(ring.Status().Added) })
	m.reg.CounterFunc(MetricTraceRingEvicted, "Traces discarded because the ring held slower ones.", func() float64 { return float64(ring.Status().Evicted) })
}

// outcomeOf classifies a finished wire response for MetricRequests.
func outcomeOf(code int, resp AnalyzeResponse) string {
	switch code {
	case http.StatusOK:
		if resp.Degraded {
			return outcomeLabelDegraded
		}
		return outcomeLabelOK
	case http.StatusBadRequest:
		return outcomeLabelBadRequest
	case http.StatusTooManyRequests:
		return outcomeLabelShed
	case http.StatusServiceUnavailable:
		return outcomeLabelUnavailable
	default:
		return outcomeLabelInternal
	}
}

// record updates the request-path families for one finished request
// and returns its outcome label. Constant-key map lookups and atomic
// adds only: zero allocations on the hot path.
func (m *handlerMetrics) record(resp AnalyzeResponse, code int, elapsed time.Duration) string {
	outcome := outcomeOf(code, resp)
	m.latency.ObserveDuration(elapsed)
	if c := m.outcomes[outcome]; c != nil {
		c.Inc()
	}
	if code == http.StatusOK && resp.Error == "" {
		if h := m.rungs[resp.Method]; h != nil {
			h.ObserveDuration(elapsed)
		}
		if resp.Independent {
			m.verdicts["independent"].Inc()
		} else {
			m.verdicts["dependent"].Inc()
		}
		if c := m.plans[resp.Plan]; c != nil {
			c.Inc()
		}
	}
	return outcome
}
