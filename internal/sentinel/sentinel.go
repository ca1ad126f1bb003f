// Package sentinel is the runtime audit-and-quarantine layer: it
// samples live Independent verdicts and re-derives them on machinery
// independent of the fast path — the retained reference CDAG engine
// (refcdag.IndependenceBudget, run from the source DTD, never from a
// compiled artifact) and, when example documents are available,
// concrete oracle replay (eval.DependentOnAny on schema-valid
// documents). A disagreement is an incident: the schema fingerprint is
// quarantined (package quarantine; core downgrades every later verdict
// for it to the conservative rung), its compiled-schema cache entry is
// purged once so a corrupted artifact recompiles, and a structured
// Incident lands in an in-memory ring (served via /incidentz) and an
// optional JSONL spool.
//
// Auditing is off the request path: Observe only samples, packages and
// enqueues — the bounded queue never blocks, and when it is full the
// audit is dropped and counted. Workers run under their own
// guard.Limits sub-budget, so auditing can never starve serving.
//
// Soundness: the sentinel only ever *downgrades*. A caught
// disagreement does not retract the already-served verdict (it
// cannot); it prevents the next one, which is the strongest containment
// available to a runtime checker. Nothing in this package can turn a
// verdict into Independent; the xqvet verdictflow gate checks that
// mechanically.
package sentinel

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/guard"
	"xqindep/internal/lru"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/refcdag"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// Config tunes an Auditor. Zero fields select defaults.
type Config struct {
	// SampleRate is the fraction of Independent verdicts audited
	// (0 < rate <= 1; default 0.01). Non-Independent verdicts are never
	// audited: a conservative verdict cannot be unsound.
	SampleRate float64
	// Seed drives the sampling and document-generation randomness;
	// audits are reproducible for a fixed seed and observation order.
	Seed int64
	// QueueDepth bounds the audit queue (default 256). A full queue
	// drops the audit (counted in Stats.Dropped) rather than block the
	// request path.
	QueueDepth int
	// Workers is the number of audit goroutines (default 1).
	Workers int
	// Budget bounds each single audit; zero fields take guard defaults.
	// Callers typically pass their serving limits Subdivide()'d so the
	// audit lane is strictly smaller than a serving lane.
	Budget guard.Limits
	// Quarantine is the registry incidents trip; nil gives the auditor
	// a registry of its own.
	Quarantine *quarantine.Registry
	// Plans is the prepared-plan cache the serving pool consults (see
	// internal/plan); nil selects the process-wide plan.Shared(). When
	// a disagreement quarantines a fingerprint, every plan inferred
	// under that schema is purged from it alongside the compiled-schema
	// cache entry: a cached verdict must not outlive the suspicion about
	// the schema it was derived from.
	Plans *plan.Cache
	// OracleDocs is the number of schema-valid example documents
	// generated per fingerprint for oracle replay (default 4; negative
	// disables the oracle).
	OracleDocs int
	// BaseContext, when non-nil, parents the auditor's lifecycle
	// context (default context.Background()). Chaos harnesses attach
	// fault schedules here to inject faults into the audit lane itself;
	// cancelling it is equivalent to the hard-cancel leg of Shutdown.
	BaseContext context.Context
	// Spool, when non-nil, receives every incident as one JSON line.
	Spool io.Writer
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Quarantine == nil {
		c.Quarantine = quarantine.NewRegistry(quarantine.Config{})
	}
	if c.OracleDocs == 0 {
		c.OracleDocs = 4
	}
	return c
}

// Observation is one served analysis handed to Observe. The auditor
// keeps references to D, Query and Update across goroutines; all three
// are immutable by engine convention.
type Observation struct {
	D          *dtd.DTD
	Query      xquery.Query
	Update     xquery.Update
	QueryText  string
	UpdateText string
	Result     core.Result
	// FaultSchedule describes the chaos schedule active on the request,
	// if any; it is threaded into the incident record.
	FaultSchedule string
}

// job is one queued audit or retrial probe.
type job struct {
	obs   Observation
	probe bool
}

// Stats is a point-in-time snapshot of an Auditor.
type Stats struct {
	Observed      int64 `json:"observed"`
	Sampled       int64 `json:"sampled"`
	Dropped       int64 `json:"dropped"`
	Audited       int64 `json:"audited"`
	Agreements    int64 `json:"agreements"`
	Disagreements int64 `json:"disagreements"`
	Inconclusive  int64 `json:"inconclusive"`
	OracleWitness int64 `json:"oracle_witness"`
	Probes        int64 `json:"probes"`
	ProbesClean   int64 `json:"probes_clean"`
	ProbesDirty   int64 `json:"probes_dirty"`
	SpoolErrors   int64 `json:"spool_errors"`
	Incidents     int64 `json:"incidents"`
}

// Auditor samples, audits and quarantines. Construct with New; Close
// when done.
type Auditor struct {
	cfg Config
	reg *quarantine.Registry

	// base is the auditor's own lifecycle context: every audit budget
	// derives from it, so Shutdown can hard-cancel in-flight audits
	// whose guard.Limits budget would otherwise outlive the drain
	// deadline.
	base   context.Context
	cancel context.CancelFunc

	queue   chan job
	workers sync.WaitGroup
	pending sync.WaitGroup

	mu     sync.Mutex
	closed bool
	rng    *rand.Rand
	now    func() time.Time
	ring   *ring
	st     Stats

	// docs holds the oracle documents generated per schema fingerprint.
	docs *lru.Cache[string, []xmltree.Tree]
}

// New starts an auditor with cfg's workers running.
func New(cfg Config) *Auditor {
	cfg = cfg.withDefaults()
	parent := cfg.BaseContext
	if parent == nil {
		parent = context.Background()
	}
	base, cancel := context.WithCancel(parent)
	a := &Auditor{
		cfg:    cfg,
		reg:    cfg.Quarantine,
		base:   base,
		cancel: cancel,
		queue:  make(chan job, cfg.QueueDepth),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		now:    time.Now, //xqvet:ignore clockinject injectable-clock default; tests replace via SetNow
		ring:   newRing(),
		docs:   lru.New[string, []xmltree.Tree](64, nil),
	}
	for i := 0; i < cfg.Workers; i++ {
		a.workers.Add(1)
		go a.run()
	}
	return a
}

// SetNow injects the incident clock (tests only).
func (a *Auditor) SetNow(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// Registry returns the quarantine registry incidents trip.
func (a *Auditor) Registry() *quarantine.Registry { return a.reg }

// Observe hands one served analysis to the auditor. It never blocks:
// sampling, the quarantine retrial check and the bounded enqueue are
// all O(1). Nil-safe, so serving layers can leave auditing unwired.
func (a *Auditor) Observe(o Observation) {
	if a == nil || o.D == nil || o.Query == nil || o.Update == nil {
		return
	}
	fp := o.D.Fingerprint()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.st.Observed++
	// A downgraded-by-quarantine verdict is the retrial trigger: claim
	// the single half-open probe slot and re-run the pair off-path.
	if o.Result.Err != nil && quarantine.IsQuarantined(o.Result.Err) {
		if a.reg.TryProbe(fp) {
			a.st.Probes++
			a.enqueueLocked(job{obs: o, probe: true}, fp)
		}
		return
	}
	// Only Independent verdicts can be unsound; everything else is
	// conservative by construction.
	if !o.Result.Independent {
		return
	}
	if a.cfg.SampleRate < 1 && a.rng.Float64() >= a.cfg.SampleRate {
		return
	}
	a.st.Sampled++
	a.enqueueLocked(job{obs: o}, fp)
}

// enqueueLocked enqueues without blocking; a full queue drops (and,
// for a probe, releases the retrial slot so recovery is not wedged).
func (a *Auditor) enqueueLocked(j job, fp string) {
	a.pending.Add(1)
	select {
	case a.queue <- j:
	default:
		a.pending.Done()
		a.st.Dropped++
		if j.probe {
			a.reg.RecordProbe(fp, quarantine.ProbeInconclusive)
		}
	}
}

// Flush blocks until every enqueued audit has completed. It does not
// stop the auditor.
func (a *Auditor) Flush() { a.pending.Wait() }

// Close drains and stops the workers, waiting however long the
// in-flight audits take. Observe becomes a no-op.
func (a *Auditor) Close() {
	//xqvet:ignore ctxflow lifecycle teardown: Close is the unbounded variant of Shutdown
	_ = a.Shutdown(context.Background())
}

// Shutdown stops the auditor within ctx's deadline. New observations
// are refused immediately; queued and in-flight audits run until ctx
// expires, at which point the auditor's base context is cancelled —
// hard-cancelling any audit whose own guard budget would outlive the
// drain — and Shutdown waits for the workers to unwind (prompt, since
// every audit budget observes the base context at its guard points).
// The spool, when it supports flushing (statefile.Spool does), is
// flushed after the workers exit so every recorded incident is
// durable before the process goes away. Returns ctx.Err() when the
// deadline forced a hard cancel, nil on a clean drain.
func (a *Auditor) Shutdown(ctx context.Context) error {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.queue)
	}
	a.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer guard.OnPanic(func(*guard.InternalError) {})
		a.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		a.cancel()
		<-done
	}
	a.cancel()
	a.flushSpool()
	return err
}

// flushSpool makes spooled incidents durable when the spool supports
// it; flush failures are counted, not fatal (the process is going
// away either way).
func (a *Auditor) flushSpool() {
	f, ok := a.cfg.Spool.(interface{ Flush() error })
	if !ok {
		return
	}
	if err := f.Flush(); err != nil {
		a.mu.Lock()
		a.st.SpoolErrors++
		a.mu.Unlock()
	}
}

// Stats snapshots the auditor counters.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// Incidents returns the retained incident records, oldest first.
func (a *Auditor) Incidents() []Incident {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ring.snapshot()
}

func (a *Auditor) run() {
	defer a.workers.Done()
	// Goroutine boundary: process contains per-audit panics behind its
	// own Recover; anything unwinding to here is a bug in the loop
	// itself — absorb it rather than crash the daemon (the lost worker
	// still releases its WaitGroup slot).
	defer guard.OnPanic(func(*guard.InternalError) {})
	for j := range a.queue {
		a.process(j)
		a.pending.Done()
	}
}

// process audits one job behind a Recover boundary: a panic out of the
// shadow engine or oracle is itself an engine bug, but it must be
// contained to this one audit (counted inconclusive), never crash the
// daemon.
func (a *Auditor) process(j job) {
	var err error
	func() {
		defer guard.Recover(&err)
		if j.probe {
			a.retrial(j.obs)
		} else {
			a.audit(j.obs)
		}
	}()
	if err != nil {
		a.mu.Lock()
		a.st.Inconclusive++
		a.mu.Unlock()
		if j.probe {
			a.reg.RecordProbe(j.obs.D.Fingerprint(), quarantine.ProbeInconclusive)
		}
	}
}

// verdictOf re-derives the pair on the independent machinery. It
// reports (unsound, witness, shadow, shadowErr): unsound means the
// served Independent verdict is refuted — by the shadow engine
// deciding dependent, or by a concrete oracle witness.
func (a *Auditor) verdictOf(o Observation) (unsound bool, witness int, shadow refcdag.Verdict, shadowErr error) {
	// Shadow re-derivation under the audit budget, on a context free
	// of the request's fault schedule: the auditor must not inherit the
	// faults it is auditing.
	func() {
		defer guard.Recover(&shadowErr)
		// The audit budget derives from the auditor's base context — not
		// the audited request's (fault-schedule isolation), and not a
		// bare Background (Shutdown must be able to hard-cancel it).
		b := guard.New(a.base, a.cfg.Budget)
		shadow = refcdag.IndependenceBudget(o.D, o.Query, o.Update, b)
	}()
	witness = -1
	if a.cfg.OracleDocs > 0 {
		trees := a.docsFor(o.D)
		// The oracle is best-effort: replay errors on individual trees
		// are skipped inside DependentOnAny, and a panic (hostile AST
		// shape) is absorbed here.
		_ = guard.Do(func() {
			witness = eval.DependentOnAny(trees, o.Query, o.Update)
		})
	}
	if shadowErr == nil && !shadow.Independent {
		unsound = true
	}
	if witness >= 0 {
		unsound = true
	}
	return unsound, witness, shadow, shadowErr
}

// audit re-derives one sampled Independent verdict and, on
// disagreement, quarantines the fingerprint and records the incident.
func (a *Auditor) audit(o Observation) {
	unsound, witness, shadow, shadowErr := a.verdictOf(o)
	fp := o.D.Fingerprint()

	a.mu.Lock()
	a.st.Audited++
	if witness >= 0 {
		a.st.OracleWitness++
	}
	switch {
	case unsound:
		a.st.Disagreements++
	case shadowErr != nil:
		a.st.Inconclusive++
	default:
		a.st.Agreements++
	}
	a.mu.Unlock()

	if !unsound {
		return
	}
	if purge := a.reg.Quarantine(fp); purge {
		// First engagement: the likeliest benign cause is a corrupted
		// compiled artifact — purge it so the next request recompiles
		// from source before the quarantine becomes sticky. Prepared
		// plans were inferred under the suspect artifact, so they go
		// with it: after recovery the first request per pair re-infers
		// cold from the fresh compilation.
		dtd.PurgeCompiled(fp)
		a.plans().PurgeSchema(fp)
	}
	a.record("audit-disagreement", o, shadow, shadowErr, witness)
}

// retrial is the half-open recovery probe: the pair is re-analyzed on
// the fast path (quarantine bypassed by passing no registry — the
// served verdict stays conservative; only this off-path copy runs the
// suspect engines) and re-audited. Clean retrials accumulate toward
// recovery, a dirty one re-trips the quarantine with doubled backoff.
func (a *Auditor) retrial(o Observation) {
	fp := o.D.Fingerprint()
	res, err := core.NewAnalyzer(o.D).AnalyzeContext(
		// Retrials run off the request path on the auditor's base
		// context, so Shutdown can hard-cancel a wedged one. The plan
		// cache is bypassed with a throwaway: a retrial must actually
		// re-run the suspect engines, not be answered by a verdict
		// cached before the quarantine tripped.
		a.base, o.Query, o.Update, core.MethodChains,
		core.Options{Limits: a.cfg.Budget, Plans: plan.NewCache(1)})
	if err != nil || res.Degraded {
		a.reg.RecordProbe(fp, quarantine.ProbeInconclusive)
		return
	}
	if !res.Independent {
		// Conservative on the fast path: nothing to refute.
		a.markProbe(fp, true)
		return
	}
	unsound, witness, shadow, shadowErr := a.verdictOf(o)
	if shadowErr != nil && witness < 0 {
		a.reg.RecordProbe(fp, quarantine.ProbeInconclusive)
		return
	}
	if unsound {
		a.markProbe(fp, false)
		a.record("probe-dirty", o, shadow, shadowErr, witness)
		return
	}
	a.markProbe(fp, true)
}

// plans resolves the prepared-plan cache containment purges.
func (a *Auditor) plans() *plan.Cache {
	if a.cfg.Plans != nil {
		return a.cfg.Plans
	}
	return plan.Shared()
}

func (a *Auditor) markProbe(fp string, clean bool) {
	a.mu.Lock()
	if clean {
		a.st.ProbesClean++
	} else {
		a.st.ProbesDirty++
	}
	a.mu.Unlock()
	if clean {
		a.reg.RecordProbe(fp, quarantine.ProbeClean)
	} else {
		a.reg.RecordProbe(fp, quarantine.ProbeDirty)
	}
}

// evidenceCap bounds the chains an incident records per chain set.
const evidenceCap = 64

// record builds the structured incident, appends it to the ring and
// spools it.
func (a *Auditor) record(kind string, o Observation, shadow refcdag.Verdict, shadowErr error, witness int) {
	in := Incident{
		Kind:            kind,
		Fingerprint:     o.D.Fingerprint(),
		QueryText:       o.QueryText,
		UpdateText:      o.UpdateText,
		FastIndependent: o.Result.Independent || kind == "probe-dirty",
		OracleWitness:   witness,
		Method:          o.Result.Method.String(),
		FaultSchedule:   o.FaultSchedule,
	}
	if shadowErr != nil {
		in.ShadowErr = shadowErr.Error()
	} else {
		in.ShadowIndependent = shadow.Independent
		in.ShadowReasons = shadow.Reasons
		// Chain evidence comes from the shadow's own chain DAGs, capped
		// per set (enumeration is exponential in general). Enumerating
		// ticks the audit budget, so a Shutdown can abort it, leaving
		// the incident without evidence.
		_ = guard.Do(func() {
			in.QueryChains = append(shadow.Query.Ret.Strings(evidenceCap), shadow.Query.Used.Strings(evidenceCap)...)
			in.UpdateChains = shadow.Update.Full.Strings(evidenceCap)
		})
	}
	for _, m := range o.Result.FallbackChain {
		in.FallbackChain = append(in.FallbackChain, m.String())
	}

	a.mu.Lock()
	in.Time = a.now()
	a.st.Incidents++
	a.ring.add(in)
	w := a.cfg.Spool
	a.mu.Unlock()
	if w != nil {
		if err := spool(w, in); err != nil {
			a.mu.Lock()
			a.st.SpoolErrors++
			a.mu.Unlock()
		}
	}
}

// docsFor returns (generating and caching on first use) the example
// documents for o's schema, used by oracle replay. Generation is
// deterministic per fingerprint and seed, so eviction only costs time.
func (a *Auditor) docsFor(d *dtd.DTD) []xmltree.Tree {
	fp := d.Fingerprint()
	trees, _, _ := a.docs.Get(fp, func() ([]xmltree.Tree, error) {
		h := fnv.New64a()
		fmt.Fprint(h, fp)
		rng := rand.New(rand.NewSource(a.cfg.Seed ^ int64(h.Sum64())))
		var trees []xmltree.Tree
		for attempt := 0; attempt < a.cfg.OracleDocs*3 && len(trees) < a.cfg.OracleDocs; attempt++ {
			t, err := d.GenerateTree(rng, 0.4, 12)
			if err != nil {
				continue
			}
			trees = append(trees, t)
		}
		return trees, nil
	})
	return trees
}
