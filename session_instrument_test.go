package cep

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/workload"
)

// matchDigest fingerprints a match list as an order-independent multiset:
// the count plus a hash of the sorted keys, so a dropped or duplicated
// match changes it while emission interleaving does not.
func matchDigest(ms []*Match) string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%016x", len(keys), h.Sum64())
}

// TestSessionInstrumentationInvariance pins that instrumentation never
// changes detection: every combination of telemetry (default or disabled),
// tracing (off, every submission sampled, or sampled plus provenance) and
// feed (Submit or SubmitBatch) yields the same per-query match multiset on
// a sharing session. The query set spans a shared mqo lane (the keyed
// twins) and private lanes (the negation among them).
func TestSessionInstrumentationInvariance(t *testing.T) {
	stocks := workload.NewStocks(workload.StockConfig{
		Symbols: 6, Events: 2000, Seed: 7, MinRate: 1, MaxRate: 5,
	})
	events := stocks.Generate()
	queries := shareQueries(t, stocks, events)

	telemetries := []struct {
		name string
		tc   *TelemetryConfig
	}{
		{"telemetry", nil},
		{"no-telemetry", &TelemetryConfig{Disabled: true}},
	}
	traces := []struct {
		name string
		tc   *TraceConfig
	}{
		{"no-trace", nil},
		{"trace", &TraceConfig{SampleEvery: 1}},
		{"trace+prov", &TraceConfig{SampleEvery: 1, Provenance: true}},
	}
	feeds := []struct {
		name  string
		batch bool
	}{
		{"submit", false},
		{"batch", true},
	}

	var want map[string]string
	var wantName string
	for _, tel := range telemetries {
		for _, tr := range traces {
			for _, feed := range feeds {
				name := tel.name + "/" + tr.name + "/" + feed.name
				t.Run(name, func(t *testing.T) {
					s := NewSession(SessionConfig{
						QueueLen: 64, ShareSubplans: true, Telemetry: tel.tc, Trace: tr.tc,
					})
					defer s.Close()
					for _, qc := range queries {
						if err := s.Register(qc); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Start(); err != nil {
						t.Fatal(err)
					}
					feedSession(t, s, workload.ResetStream(events), feed.batch)
					if _, err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					if r := s.ShareReport(); r == nil || r.Shared < 2 {
						t.Fatalf("no shared mqo lane: %+v", r)
					}
					if tr.tc != nil && len(s.Traces()) == 0 {
						t.Fatal("tracing on but no trace retained")
					}

					got := make(map[string]string, len(queries))
					for _, qc := range queries {
						ms := s.Matches(qc.Name)
						if qc.Name == "negated" && len(ms) == 0 {
							t.Fatal("negation query produced no matches; its private lane is unchecked")
						}
						got[qc.Name] = matchDigest(ms)
					}
					if want == nil {
						want, wantName = got, name
						return
					}
					for _, qc := range queries {
						if got[qc.Name] != want[qc.Name] {
							t.Errorf("query %q: digest %s, want %s (as %s)",
								qc.Name, got[qc.Name], want[qc.Name], wantName)
						}
					}
				})
			}
		}
	}
}

// feedSession submits events one at a time or in fixed-size batches.
func feedSession(t *testing.T, s *Session, events []*Event, batch bool) {
	t.Helper()
	if !batch {
		for _, ev := range events {
			if err := s.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	const size = 128
	for i := 0; i < len(events); i += size {
		if err := s.SubmitBatch(events[i:min(i+size, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
}
