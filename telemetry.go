package cep

// The Session side of the live telemetry layer (internal/telemetry):
// always-on hot-path counters, sampled detection-latency histograms, a
// bounded control-plane journal, and the TelemetryConfig knob. The
// exposition surfaces — Session.Metrics() and the HTTP handler — live in
// session_metrics.go.

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// TelemetryConfig tunes the session's built-in instrumentation. Telemetry
// is ON by default (SessionConfig.Telemetry == nil selects the defaults
// below): the hot-path cost is a handful of uncontended atomic adds per
// queue item. Set Disabled to strip even that; detection is identical
// either way.
type TelemetryConfig struct {
	// Disabled turns the layer off entirely: Session.Metrics() still
	// reports structure (queries, lanes, generations) but every counter
	// reads zero, no latencies are sampled, and no journal is kept.
	Disabled bool
	// LatencySampleEvery samples one of every N Submit/SubmitBatch calls
	// with a wall-clock stamp; the stamped item's matches observe
	// submit→emission detection latency (§6.1's measure, on live traffic).
	// Default 64; negative disables latency sampling only.
	LatencySampleEvery int
	// JournalCap bounds the control-plane journal (query churn, splices,
	// drift re-optimizations, index rebuilds); oldest entries are
	// overwritten. Default 256.
	JournalCap int
}

func (tc TelemetryConfig) withDefaults() TelemetryConfig {
	if tc.LatencySampleEvery == 0 {
		tc.LatencySampleEvery = 64
	}
	if tc.JournalCap <= 0 {
		tc.JournalCap = 256
	}
	return tc
}

// sessionTelemetry is the session-global half of the instrumentation: the
// feed-side counters (submission, routing, drops), the latency sampler and
// the control-plane journal. Per-lane counters live on each sessionLane
// (worker-owned, summed at snapshot time); per-query match counters on
// each sessionQuery. A nil *sessionTelemetry means telemetry is disabled —
// every hot-path site guards with one nil check.
type sessionTelemetry struct {
	eventsSubmitted  telemetry.Counter // events accepted by Submit/SubmitBatch
	batchesSubmitted telemetry.Counter // SubmitBatch calls accepted
	eventsRouted     telemetry.Counter // per-lane deliveries on the indexed path
	eventsDropped    telemetry.Counter // events the index matched to no lane

	sampler *telemetry.Sampler
	journal *telemetry.Journal
}

func newSessionTelemetry(cfg *TelemetryConfig) *sessionTelemetry {
	var tc TelemetryConfig
	if cfg != nil {
		tc = *cfg
	}
	if tc.Disabled {
		return nil
	}
	tc = tc.withDefaults()
	return &sessionTelemetry{
		sampler: telemetry.NewSampler(tc.LatencySampleEvery),
		journal: telemetry.NewJournal(tc.JournalCap),
	}
}

// record journals one control-plane transition; nil-safe, so call sites
// need no telemetry guard.
func (t *sessionTelemetry) record(streamSeq uint64, kind, detail string) {
	if t == nil {
		return
	}
	t.journal.Record(int64(streamSeq), kind, detail)
}

// recordf is record with formatting, skipped entirely when disabled so the
// fmt work is never paid for nothing.
func (t *sessionTelemetry) recordf(streamSeq uint64, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.journal.Record(int64(streamSeq), kind, fmt.Sprintf(format, args...))
}

// recordKV journals a transition carrying ordered structured fields; the
// free-form Detail is rendered from the same pairs ("k=v k=v ...") so the
// two views never diverge. Nil-safe like record/recordf.
func (t *sessionTelemetry) recordKV(streamSeq uint64, kind string, fields ...telemetry.KV) {
	if t == nil {
		return
	}
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(f.Value)
	}
	t.journal.RecordFields(int64(streamSeq), kind, b.String(), fields)
}

// kv builds one journal field.
func kv(key string, value any) telemetry.KV {
	return telemetry.KV{Key: key, Value: fmt.Sprint(value)}
}
