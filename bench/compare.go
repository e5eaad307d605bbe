package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison and the smoke
// test need: workload and metric names, directions and bounds.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(root string) (*benchmarkJSON, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	b := new(benchmarkJSON)
	if err := json.Unmarshal(blob, b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(blob, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// verdict classifies the change of one (metric, workload) pair from base a
// to b under the metric's bound: the relative worsening of the median
// against the bound, unless spread — the wider of the two interquartile
// ranges as a share of its median — exceeds the bound, in which case the
// pair cannot be resolved either way.
func verdict(m boundedMetric, a, b metricValue) (v string, spread float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	for _, x := range []metricValue{a, b} {
		if x.Value != 0 {
			spread = max(spread, (x.Q3-x.Q1)/x.Value)
		}
	}
	switch {
	case spread > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	case worse < -m.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return v, spread
}

// compareResults prints one row per (end-to-end metric, workload) and
// reports whether any pair regressed.
func compareResults(bj *benchmarkJSON, a, b *resultFile) (regressed bool) {
	fmt.Printf("%-22s %-14s %-11s %14s %14s %9s %8s %7s\n", "metric", "workload", "verdict", "base", "new", "new/base", "spread", "bound")
	for _, m := range bj.EndToEnd {
		for _, w := range bj.Workloads {
			wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
			if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
				continue
			}
			va, oka := wa.EndToEnd.Metrics[m.Name]
			vb, okb := wb.EndToEnd.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			v, spread := verdict(m, va, vb)
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Printf("%-22s %-14s %-11s %14.6g %14.6g %9.4f %7.1f%% %6.1f%%\n",
				m.Name, w.Name, v, va.Value, vb.Value, ratio, 100*spread, 100*m.Bound)
			regressed = regressed || v == "regressed"
		}
	}
	for _, w := range bj.Workloads {
		for _, rf := range []*resultFile{a, b} {
			if wr := rf.Workloads[w.Name]; wr != nil && wr.EndToEnd != nil && !wr.EndToEnd.Correct {
				fmt.Printf("%-22s %-14s %-11s failed %d of %d (%s)\n", "correct", w.Name, "regressed",
					wr.EndToEnd.Failed, wr.EndToEnd.Attempted, strings.Join(wr.EndToEnd.Notes, "; "))
				regressed = true
			}
		}
	}
	return regressed
}

func compareFiles(root, pathA, pathB string) (bool, error) {
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		return false, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds || a.Short != b.Short || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Printf("warning: the two sets ran under different settings (seconds %g/%g, short %v/%v, GOMAXPROCS %d/%d)\n",
			a.Seconds, b.Seconds, a.Short, b.Short, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return compareResults(bj, a, b), nil
}

// selfCheck runs the end-to-end pass twice on the same code and compares
// the two sets with the benchmark's own bounds: a pair that regresses
// between identical runs means the bound is tighter than the noise.
func selfCheck(root string, c runConfig, workload, out string) (bool, error) {
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		return false, err
	}
	var sets [2]*resultFile
	for i := range sets {
		rf, ok, err := runAll(c, workload, 0)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		sets[i] = rf
		path := strings.TrimSuffix(out, ".json") + fmt.Sprintf(".self%d.json", i+1)
		if err := writeJSON(path, rf); err != nil {
			return false, err
		}
	}
	fmt.Println("== selfcheck: second set against the first")
	return compareResults(bj, sets[0], sets[1]), nil
}
