// Command bench is the repository's benchmark: five canonical workloads
// driven through the public cep.Session API for the end-to-end metrics,
// then replayed through each layer's exported functions for the per-layer
// metrics, with a correctness gate on every run. See README.md.
//
// The driver of BENCHMARK.json runs
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// and reads the last line of standard output. Without -workload every
// workload runs, both passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// committedSeconds is run_seconds of BENCHMARK.json: the run length the
// workload sizes were tuned for. Other -seconds values scale every rep.
const committedSeconds = 20

// metricDef names one metric and its unit; direction and bound live in
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"throughput_eps", "1/s"},
	{"cpu_us_per_event", "us"},
	{"allocs_per_event", "count"},
	{"live_heap_peak_mb", "MB"},
	{"detect_latency_p50_us", "us"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"filterindex.match_ns_per_event", "ns"},
	{"filterindex.hits_per_event", "count"},
	{"filterindex.hit_ratio", "ratio"},
	{"filterindex.build_ms", "ms"},
	{"filterindex.update_ms", "ms"},
	{"pool.send_ns_per_item", "ns"},
	{"pool.handoff_ns_p50", "ns"},
	{"pool.handoff_ns_p99", "ns"},
	{"pool.drain_us", "us"},
	{"mqo.optimize_ms", "ms"},
	{"mqo.engine_ns_per_event", "ns"},
	{"mqo.probes_per_event", "count"},
	{"mqo.created_per_event", "count"},
	{"mqo.probe_yield", "ratio"},
	{"mqo.peak_partial", "count"},
	{"mqo.allocs_per_event", "count"},
	{"mqo.shared_nodes", "count"},
	{"mqo.adopt_ms", "ms"},
	{"mqo.pool_live_after_close", "count"},
	{"tree.engine_ns_per_event", "ns"},
	{"tree.created_per_event", "count"},
	{"tree.peak_partial", "count"},
	{"tree.peak_buffered", "count"},
	{"tree.allocs_per_event", "count"},
	{"nfa.engine_ns_per_event", "ns"},
	{"nfa.created_per_event", "count"},
	{"nfa.peak_partial", "count"},
	{"predicate.compile_us", "us"},
	{"predicate.pair_ns", "ns"},
	{"core.plan_ms", "ms"},
	{"core.plan_cost", "count"},
	{"cost.pm_ratio", "ratio"},
	{"drift.observe_ns_per_event", "ns"},
	{"session.submit_ns_per_event", "ns"},
	{"session.residual_ns_per_event", "ns"},
	{"session.route_drop_frac", "ratio"},
	{"session.stalls_per_kevent", "count"},
	{"session.lanes", "count"},
	{"session.items_per_event", "count"},
	{"session.matches_per_event", "count"},
	{"session.flush_ms", "ms"},
	{"session.splice_ms_p50", "ms"},
	{"session.splice_ms_max", "ms"},
	{"session.paced_lag_p99_us", "us"},
	{"session.detect_latency_p99_us", "us"},
	{"session.replay_overhead_frac", "ratio"},
}

// metricValue is one reported number. Value is the median over N samples;
// Q1/Q3 its quartiles (equal to Value when N is 1).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// passResult is one pass (end-to-end or per-layer) of one workload.
type passResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

func (p *passResult) set(defs []metricDef, name string, samples ...float64) {
	for _, d := range defs {
		if d.name == name {
			med, q1, q3 := quartiles(samples)
			p.Metrics[name] = metricValue{Value: med, Unit: d.unit, Q1: q1, Q3: q3, N: len(samples)}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (p *passResult) fail(n, bad int, msgs ...string) {
	p.Attempted += n
	p.Failed += bad
	p.Notes = append(p.Notes, msgs...)
}

// workloadResult holds both passes of one workload in the result file.
type workloadResult struct {
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       int64                      `json:"seed"`
	Commit     string                     `json:"commit"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Seconds    float64                    `json:"seconds"`
	Short      bool                       `json:"short"`
	BatchSize  int                        `json:"batch_size"`
	PacedRates map[string]float64         `json:"paced_rate_eps"`
	Claim      *string                    `json:"claim"` // this benchmark claims no gain
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// runConfig carries the flags every pass needs.
type runConfig struct {
	seed    int64
	seconds float64
	short   bool
	layer   string
	outDir  string
}

// scale is the factor applied to every committed size.
func (c runConfig) scale() float64 { return c.seconds / committedSeconds }

// streamEvents is the stream length of a full saturation rep.
func (c runConfig) streamEvents(sp *spec) int {
	n := int(float64(sp.repEvents) * c.scale())
	if c.short {
		n = sp.shortEvents
	}
	return max(n/batchSize, 4) * batchSize
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// rootDir finds the checkout root (the directory holding BENCHMARK.json)
// from the working directory: the root itself or bench/ inside it.
func rootDir() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func newResultFile(c runConfig) *resultFile {
	rf := &resultFile{
		Seed: c.seed, Commit: commit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seconds: c.seconds, Short: c.short, BatchSize: batchSize,
		PacedRates: map[string]float64{}, Workloads: map[string]*workloadResult{},
	}
	for _, sp := range specs {
		rf.PacedRates[sp.name] = sp.pacedRate
	}
	return rf
}

// runAll runs the selected workloads and passes, printing every metric by
// name with its unit and, per pass, the driver's one-line JSON object.
func runAll(c runConfig, workload string, trace int) (*resultFile, bool, error) {
	rf := newResultFile(c)
	ok := true
	for _, sp := range specs {
		if workload != "" && sp.name != workload {
			continue
		}
		wr := &workloadResult{Why: sp.why}
		rf.Workloads[sp.name] = wr
		if trace != 1 {
			p, err := runEndToEnd(sp, c)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", sp.name, err)
			}
			wr.EndToEnd = p
			ok = printPass(sp.name, "end_to_end", endToEndMetrics, p) && ok
		}
		if trace != 0 {
			p, err := runLayers(sp, c)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", sp.name, err)
			}
			wr.PerLayer = p
			ok = printPass(sp.name, "per_layer", perLayerMetrics, p) && ok
		}
	}
	return rf, ok, nil
}

// printPass prints one pass: a table for people, then the JSON object the
// driver reads from the last line.
func printPass(workload, pass string, defs []metricDef, p *passResult) bool {
	fmt.Printf("== %s %s\n", workload, pass)
	for _, d := range defs {
		if m, ok := p.Metrics[d.name]; ok {
			fmt.Printf("%-34s %16.6g %-6s q1=%.6g q3=%.6g n=%d\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	for _, n := range p.Notes {
		fmt.Println("note:", n)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]driverMetric{}}
	for name, m := range p.Metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(blob))
	return p.Correct
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all five)")
		seed       = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", committedSeconds, "measuring time of one pass; sizes scale with it")
		trace      = flag.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only (default: both)")
		layer      = flag.String("layer", "", "per-layer pass: replay only this layer (filterindex, pool, mqo, tree, nfa, predicate, core, drift, session)")
		out        = flag.String("out", "", "result file (default bench/out/result.json)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit")
		short      = flag.Bool("short", false, "tiny sizes, one rep each: a smoke run, not a measurement")
		compare    = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		selfcheck  = flag.Bool("selfcheck", false, "run two full sets and fail if they disagree beyond the bounds")
	)
	flag.Parse()
	// Run protocol: at most four Ps, recorded in the result file.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *workload != "" && specByName(*workload) == nil {
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.name
		}
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	root := rootDir()
	c := runConfig{seed: *seed, seconds: *seconds, short: *short, layer: *layer, outDir: filepath.Join(root, "bench", "out")}
	if *out == "" {
		*out = filepath.Join(c.outDir, "result.json")
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		regressed, err := compareFiles(root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	code := 0
	if *selfcheck {
		disagree, err := selfCheck(root, c, *workload, *out)
		if err != nil {
			fatal(err)
		}
		if disagree {
			code = 1
		}
	} else {
		rf, ok, err := runAll(c, *workload, *trace)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(*out, rf); err != nil {
			fatal(err)
		}
		if !ok {
			code = 1
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if code != 0 {
		pprof.StopCPUProfile()
		os.Exit(code)
	}
}

func fatal(err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
