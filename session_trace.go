package cep

// The Session side of the tracing layer (internal/trace): the TraceConfig
// knob, the sampled trace ring behind Session.Traces(), and the
// match-provenance stamps. Span recording sites live on the feed path
// (session.go, session_index.go) and the lane workers; everything is
// gated on one nil check (s.tr) plus, per item, a nil trace pointer — the
// same discipline as the telemetry layer.

import (
	"time"

	"repro/internal/match"
	"repro/internal/mqo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Prov is the provenance record attached to emitted matches when
// TraceConfig.Provenance is enabled; see match.Prov.
type Prov = match.Prov

// TraceConfig enables the event-tracing and match-provenance layer.
// Tracing is OFF by default (SessionConfig.Trace == nil): the trace-off
// hot path pays nothing beyond one nil check. Tracing never changes which
// matches are detected.
type TraceConfig struct {
	// SampleEvery traces one of every N submissions end to end: the
	// sampled event (or batch) carries a trace context through ingress
	// filtering, partition routing, queueing, engine processing and
	// emission, each stage recording a span with a monotonic timestamp.
	// 0 (or negative) disables event tracing.
	SampleEvery int
	// RingCap bounds the retained traces (default 64); oldest are
	// evicted. Retrieve them with Session.Traces() or /debug/traces.json.
	RingCap int
	// Provenance attaches a match.Prov to EVERY emitted match (cheap, not
	// sampled): the contributing event sequence numbers (aligned with
	// Match.Events(), exact across re-optimization splices), the emitting
	// lane/partition/component and its generation, and the submit→emit
	// latency. Matches of opaque detectors (RegisterDetector) carry
	// identity and latency but nil Seqs — their engines do not thread
	// sequence numbers.
	Provenance bool
}

// sessionTracer is the session-global tracing state. Nil when tracing is
// disabled entirely; ring is nil when only Provenance is on.
type sessionTracer struct {
	sampler *telemetry.Sampler
	ring    *trace.Ring
	prov    bool
}

func newSessionTracer(cfg *TraceConfig) *sessionTracer {
	if cfg == nil || (cfg.SampleEvery <= 0 && !cfg.Provenance) {
		return nil
	}
	t := &sessionTracer{prov: cfg.Provenance}
	if cfg.SampleEvery > 0 {
		t.sampler = telemetry.NewSampler(cfg.SampleEvery)
		ringCap := cfg.RingCap
		if ringCap <= 0 {
			ringCap = 64
		}
		t.ring = trace.NewRing(ringCap)
	}
	return t
}

// startTrace opens a trace for a sampled submission and registers it in
// the ring immediately — the ring always shows the freshest submissions,
// and Traces() sees however far each has progressed. Returns nil on the
// unsampled path.
func (t *sessionTracer) startTrace(seq uint64, batch int) *trace.Active {
	if t == nil || t.sampler == nil || !t.sampler.Sample() {
		return nil
	}
	a := trace.Start(seq, batch)
	t.ring.Add(a)
	return a
}

// Traces returns a snapshot of the most recent sampled event traces,
// oldest first. Each trace's spans cover the stages the event had crossed
// by snapshot time — a just-submitted trace may still be accumulating.
// Empty (never nil) when tracing is disabled, so the JSON endpoint
// renders "[]". Safe to call concurrently with the feed and with churn.
func (s *Session) Traces() []trace.Trace {
	if s.tr == nil {
		return []trace.Trace{}
	}
	return s.tr.ring.Snapshot()
}

// finishProv completes an engine-built provenance record at emission time
// with the lane's identity and the submit→emit latency. A no-op when the
// match carries no provenance (tracing off), so callers need no gate.
func (l *sessionLane) finishProv(m *Match, t0 int64) {
	p := m.Prov
	if p == nil {
		return
	}
	p.Lane, p.Component, p.Generation = l.idx, l.comp, l.gen
	if l.parts > 1 {
		p.Partition = l.part
	}
	if t0 != 0 {
		p.LatencyNS = time.Now().UnixNano() - t0
	}
}

// engineSpan records the engine-processing span of a sampled item as the
// delta of the lane engine's counters across the processing call:
// instances created, join probes attempted, negation kills, matches.
// st0 is the caller's pre-processing snapshot of l.eng.Stats().
func (l *sessionLane) engineSpan(tr *trace.Active, st0 mqo.EngineStats) {
	st1 := l.eng.Stats()
	tr.Spanf(trace.StageEngine, l.idx, "created=%d probes=%d negkilled=%d matches=%d",
		st1.Created-st0.Created, st1.Probes-st0.Probes,
		st1.NegKilled-st0.NegKilled, st1.Matches-st0.Matches)
}

// attachProv stamps identity-only provenance onto a private lane's
// matches: opaque detectors do not thread sequence numbers, so Seqs stays
// nil (the documented limitation). Callers gate on l.s.tr.prov.
func (l *sessionLane) attachProv(ms []*Match, t0 int64) {
	var lat int64
	if t0 != 0 {
		lat = time.Now().UnixNano() - t0
	}
	for _, m := range ms {
		if m.Prov == nil {
			m.Prov = &match.Prov{Seqs: nil, Lane: l.idx, Component: -1, LatencyNS: lat}
		}
	}
}
