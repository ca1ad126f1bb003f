package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"xqindep/internal/faultinject"
	"xqindep/internal/quarantine"
	"xqindep/internal/sentinel"
)

func TestMemoryWatermarkSheds(t *testing.T) {
	var heap uint64 = 1 << 20
	s := New(Config{
		Workers:         1,
		MemoryWatermark: 10 << 20,
		MemoryUsage:     func() uint64 { return heap },
	})
	defer s.Close()

	// Below the watermark: served normally.
	if _, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price")); err != nil {
		t.Fatalf("below watermark: %v", err)
	}

	// Above: shed with ErrOverloaded before touching the queue.
	heap = 11 << 20
	_, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("above watermark: want ErrOverloaded, got %v", err)
	}
	st := s.Stats()
	if st.MemShed != 1 || st.Shed != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Pressure relieved: admission resumes.
	heap = 1 << 20
	if _, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price")); err != nil {
		t.Fatalf("after relief: %v", err)
	}
}

// auditServer builds a pool wired to a fresh registry and auditor at
// sample rate 1.
func auditServer(t *testing.T) (*Server, *sentinel.Auditor, *quarantine.Registry) {
	t.Helper()
	reg := quarantine.NewRegistry(1)
	aud := sentinel.New(sentinel.Config{SampleRate: 1, Quarantine: reg, Seed: 1})
	s := New(Config{Workers: 2, Auditor: aud, Quarantine: reg})
	t.Cleanup(func() {
		s.Close()
		aud.Close()
	})
	return s, aud, reg
}

func TestPoolFeedsAuditorAndQuarantines(t *testing.T) {
	faultinject.Enable()
	s, aud, reg := auditServer(t)

	task := mustTask(t, bibSchema, "//title", "delete //title") // dependent
	fp := task.Analyzer.D.Fingerprint()

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	res, err := s.Do(faultinject.With(context.Background(), sched), task)
	if err != nil || !res.Independent {
		t.Fatalf("flip not served through the pool: %+v, %v", res, err)
	}
	aud.Flush()

	if st := aud.Stats(); st.Disagreements != 1 {
		t.Fatalf("pool did not feed the auditor: %+v", st)
	}
	if got := reg.State(fp); got != "quarantined" {
		t.Fatalf("fingerprint %s", got)
	}
	in := aud.Incidents()
	if len(in) != 1 || in[0].QueryText != "//title" || in[0].FaultSchedule == "" {
		t.Fatalf("incident provenance through the pool: %+v", in)
	}

	// Subsequent pool requests for the fingerprint are downgraded.
	res, err = s.Do(context.Background(), task)
	if err != nil || res.Independent || !quarantine.IsQuarantined(res.Err) {
		t.Fatalf("post-quarantine pool verdict: %+v, %v", res, err)
	}
}

// TestQuarantineDowngradesDontTripBreaker pins the state-machine
// separation: containment downgrades are breaker-neutral, so a
// quarantined schema does not also rack up breaker trips.
func TestQuarantineDowngradesDontTripBreaker(t *testing.T) {
	faultinject.Enable()
	reg := quarantine.NewRegistry(1)
	aud := sentinel.New(sentinel.Config{SampleRate: 1, Quarantine: reg, Seed: 2})
	s := New(Config{Workers: 1, Auditor: aud, Quarantine: reg, Breaker: BreakerConfig{Threshold: 2}})
	defer func() { s.Close(); aud.Close() }()

	task := mustTask(t, bibSchema, "//title", "delete //title")
	fp := task.Analyzer.D.Fingerprint()
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	if _, err := s.Do(faultinject.With(context.Background(), sched), task); err != nil {
		t.Fatal(err)
	}
	aud.Flush()
	if got := reg.State(fp); got != "quarantined" {
		t.Fatalf("state %s", got)
	}
	// Many quarantine-downgraded completions, all breaker-neutral.
	for i := 0; i < 10; i++ {
		res, err := s.Do(context.Background(), task)
		if err != nil || res.Independent {
			t.Fatalf("downgraded request %d: %+v, %v", i, res, err)
		}
	}
	if st := s.Stats(); st.BreakerTrips != 0 {
		t.Fatalf("quarantine downgrades tripped the breaker: %+v", st)
	}
	if got := s.BreakerState(fp); got != "closed" {
		t.Fatalf("breaker %s", got)
	}
}

func TestIncidentzEndpoint(t *testing.T) {
	faultinject.Enable()
	s, aud, _ := auditServer(t)
	h := NewHandler(s)

	// Empty ring first.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/incidentz", nil))
	if rw.Code != 200 {
		t.Fatalf("incidentz: %d", rw.Code)
	}
	var p IncidentzPayload
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("incidentz payload: %v", err)
	}
	if len(p.Incidents) != 0 {
		t.Fatalf("incidents before any audit: %+v", p.Incidents)
	}

	// Drive one incident through the HTTP surface.
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	body, _ := json.Marshal(AnalyzeRequest{Schema: bibSchema, Query: "//title", Update: "delete //title"})
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(body))
	req = req.WithContext(faultinject.With(req.Context(), sched))
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("analyze: %d %s", rw.Code, rw.Body.String())
	}
	aud.Flush()

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/incidentz", nil))
	p = IncidentzPayload{}
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Incidents) != 1 || p.Audit.Disagreements != 1 || p.Quarantine.Quarantined != 1 {
		t.Fatalf("incidentz after incident: %+v", p)
	}
	if p.Incidents[0].QueryText != "//title" {
		t.Fatalf("incident texts not threaded from the wire: %+v", p.Incidents[0])
	}

	// statz mirrors the audit and quarantine sections.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/statz", nil))
	var sp StatzPayload
	if err := json.Unmarshal(rw.Body.Bytes(), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Audit.Audited == 0 || sp.Quarantine.Quarantined != 1 {
		t.Fatalf("statz audit sections: %+v", sp)
	}

	// The quarantined fingerprint is flagged on the wire.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/analyze", bytes.NewReader(body)))
	var ar AnalyzeResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Independent || !ar.Quarantined || ar.Method != "conservative" {
		t.Fatalf("wire verdict under quarantine: %+v", ar)
	}
}
