package main

import (
	"flag"
	"testing"

	"repro/internal/filterindex"
)

// The layer benchmarks run one layer alone on a workload's real inputs, so
// it can be profiled in isolation:
//
//	go test -run '^$' -bench MqoProcessBatch -workload keyed_join -cpuprofile cpu.out
//
// One op is one batchSize-event batch (one event for AppendHits, one call
// for PredicatePair, one item for PoolHandoff).
var benchWorkload = flag.String("workload", "", "workload the layer benchmarks take their inputs from (default: the one that stresses the layer)")

const benchEvents = 128 * 1024

func benchReplay(b *testing.B, dflt string) *replay {
	b.Helper()
	name := *benchWorkload
	if name == "" {
		name = dflt
	}
	sp := specByName(name)
	if sp == nil {
		b.Fatalf("unknown workload %q", name)
	}
	in, err := sp.build(defaultSeed, benchEvents)
	if err != nil {
		b.Fatal(err)
	}
	in.ops = nil // the engines under test stay fixed
	r, err := newReplay(in, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchEngines times the engines of one kind, batch by batch; routing
// (filterindex + selection) happens off the clock.
func benchEngines(b *testing.B, dflt string, kind laneKind) {
	r := benchReplay(b, dflt)
	n, i := len(r.in.stream), 0
	b.ResetTimer()
	for range b.N {
		if i >= n {
			b.StopTimer()
			r = benchReplay(b, dflt)
			i = 0
			b.StartTimer()
		}
		evs := r.in.stream[i:min(i+batchSize, n)]
		b.StopTimer()
		r.route(i, evs, false)
		b.StartTimer()
		r.engines(kind, i, evs, false)
		i += batchSize
	}
	if r.tot.kindEvents[kind] == 0 {
		b.Fatalf("workload has no %s engines", kindSpan[kind])
	}
}

func BenchmarkMqoProcessBatch(b *testing.B)  { benchEngines(b, "keyed_join", kindMQO) }
func BenchmarkTreeProcessBatch(b *testing.B) { benchEngines(b, "paper_mix", kindTree) }
func BenchmarkNfaProcess(b *testing.B)       { benchEngines(b, "paper_mix", kindNFA) }

func BenchmarkFilterindexAppendHits(b *testing.B) {
	r := benchReplay(b, "selective_1k")
	var hits []filterindex.Hit
	i := 0
	b.ResetTimer()
	for range b.N {
		hits = r.idx.AppendHits(r.in.stream[i], hits[:0])
		if i++; i == len(r.in.stream) {
			i = 0
		}
	}
}

func BenchmarkPoolHandoff(b *testing.B) {
	r := benchReplay(b, "selective_1k")
	lanes := 0
	for _, ln := range r.lanes {
		if !ln.dead {
			lanes++
		}
	}
	b.ResetTimer()
	res, err := poolBench(lanes, b.N, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.p50, "handoff-p50-ns")
	b.ReportMetric(res.p99, "handoff-p99-ns")
}

func BenchmarkPredicatePair(b *testing.B) {
	r := benchReplay(b, "keyed_join")
	b.ResetTimer()
	if r.pairBench(b.N) == 0 {
		b.Fatal("workload has no pairwise predicate")
	}
}
