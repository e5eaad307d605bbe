package main

import (
	"flag"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden/<workload>.json from the per-query reference runtimes")

// TestGolden regenerates (with -update) or verifies that the committed
// digests are what standalone per-query runtimes compute on the default
// seed's correctness stream.
func TestGolden(t *testing.T) {
	for _, sp := range specs {
		in, err := sp.build(defaultSeed, sp.checkEvents)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := in.reference(len(in.stream))
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := writeGolden(in, ref); err != nil {
				t.Fatal(err)
			}
			continue
		}
		g, err := readGolden(sp.name)
		if err != nil {
			t.Fatal(err)
		}
		for q, qc := range in.all {
			if g.Queries[qc.Name] != ref[q] {
				t.Errorf("%s: golden digest of %s is %+v, reference runtimes give %+v (go test -update rewrites it)",
					sp.name, qc.Name, g.Queries[qc.Name], ref[q])
			}
		}
	}
}

// TestSmoke runs every workload in -short sizes, both passes, and checks
// the shape of what the one command emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if *update {
		t.Skip("golden files are being rewritten")
	}
	bj, err := readBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{seed: defaultSeed, seconds: committedSeconds, short: true, outDir: t.TempDir()}
	rf, ok, err := runAll(c, "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a pass reported correct=false")
	}

	if len(bj.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range bj.Workloads {
		sp := specByName(w.Name)
		if sp == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		wr := rf.Workloads[w.Name]
		if wr == nil || wr.EndToEnd == nil || wr.PerLayer == nil {
			t.Fatalf("%s: a pass is missing from the result", w.Name)
		}
		for _, pass := range []struct {
			label   string
			want    []boundedMetric
			defs    []metricDef
			metrics map[string]metricValue
		}{
			{"end_to_end", bj.EndToEnd, endToEndMetrics, wr.EndToEnd.Metrics},
			{"per_layer", bj.PerLayer, perLayerMetrics, wr.PerLayer.Metrics},
		} {
			if len(pass.metrics) != len(pass.want) || len(pass.defs) != len(pass.want) {
				t.Errorf("%s %s: %d metrics emitted, %d declared in Go, %d in BENCHMARK.json",
					w.Name, pass.label, len(pass.metrics), len(pass.defs), len(pass.want))
			}
			for _, m := range pass.want {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
				}
				got, ok := pass.metrics[m.Name] // a map: emitted at most once
				if !ok {
					t.Errorf("%s %s: metric %s is not emitted", w.Name, pass.label, m.Name)
					continue
				}
				if got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s %s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, pass.label, m.Name, got.Unit, m.Unit)
				}
			}
		}
		if v := wr.PerLayer.Metrics["mqo.pool_live_after_close"].Value; v != 0 {
			t.Errorf("%s: mqo.pool_live_after_close = %v, want 0", w.Name, v)
		}
		if wr.EndToEnd.Failed != 0 || wr.PerLayer.Failed != 0 {
			t.Errorf("%s: failed %d (end to end) + %d (per layer): %v %v", w.Name,
				wr.EndToEnd.Failed, wr.PerLayer.Failed, wr.EndToEnd.Notes, wr.PerLayer.Notes)
		}
		if rf.PacedRates[w.Name] != sp.pacedRate || sp.pacedRate <= 0 {
			t.Errorf("%s: paced rate missing from the result", w.Name)
		}
	}
	if rf.Seed != defaultSeed || rf.Commit == "" || rf.NProc != runtime.NumCPU() ||
		rf.GOMAXPROCS != runtime.GOMAXPROCS(0) || rf.Go != runtime.Version() || rf.Claim != nil {
		t.Errorf("result header incomplete: %+v", rf)
	}
	if bj.RunSeconds != committedSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the sizes are tuned for %d", bj.RunSeconds, committedSeconds)
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s = %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(c.outDir, "trace_*.json")); len(matches) != len(specs) {
		t.Errorf("%d trace files written, want %d", len(matches), len(specs))
	}
}

// TestVerdict pins the comparison rule: spread wider than the bound is
// unresolved, not unchanged.
func TestVerdict(t *testing.T) {
	m := boundedMetric{Name: "x", Better: "higher", Bound: 0.05}
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Q1: q1, Q3: q3, N: 3} }
	for _, tc := range []struct {
		a, b metricValue
		want string
	}{
		{mv(100, 99, 101), mv(101, 100, 102), "unchanged"},
		{mv(100, 99, 101), mv(90, 89, 91), "regressed"},
		{mv(100, 99, 101), mv(110, 109, 111), "improved"},
		{mv(100, 90, 110), mv(80, 79, 81), "unresolved"},
	} {
		if got, _ := verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
	lower := boundedMetric{Name: "y", Better: "lower", Bound: 0.05}
	if got, _ := verdict(lower, mv(100, 99, 101), mv(110, 109, 111)); got != "regressed" {
		t.Errorf("lower-is-better metric rising 10%% = %s, want regressed", got)
	}
}

// TestHist checks the <1 % error promise of the latency histogram.
func TestHist(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1_000_000; v += 7 {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1_000_000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
}
