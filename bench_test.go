package cep

// Benchmarks regenerating the paper's evaluation, one per figure (see
// docs/paper-map.md for the figure → experiment mapping), plus
// micro-benchmarks of the engines and planners. Figure benchmarks run a
// scaled-down workload per iteration; use cmd/cepbench for full-size
// tables.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/nfa"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *harness.Runner
)

// benchHarness shares one generated workload across the figure benchmarks.
func benchHarness() *harness.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = harness.NewRunner(harness.Config{
			Symbols: 24,
			Events:  3000,
			Window:  2 * event.Second,
			Sizes:   []int{3, 4, 5},
			PerSize: 1,
			Seed:    1,
		})
	})
	return benchRunner
}

func benchFigure(b *testing.B, n int) {
	r := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ThroughputByCategory regenerates Figures 4a/4b (and 5a/5b,
// which share the runs): per-category throughput of all nine algorithms.
func BenchmarkFig4ThroughputByCategory(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFig5MemoryByCategory regenerates Figures 5a/5b.
func BenchmarkFig5MemoryByCategory(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFig6SeqThroughput regenerates Figures 6/7 (sequence patterns by
// size).
func BenchmarkFig6SeqThroughput(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFig8NegationThroughput regenerates Figures 8/9.
func BenchmarkFig8NegationThroughput(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFig10ConjunctionThroughput regenerates Figures 10/11.
func BenchmarkFig10ConjunctionThroughput(b *testing.B) { benchFigure(b, 10) }

// BenchmarkFig12KleeneThroughput regenerates Figures 12/13.
func BenchmarkFig12KleeneThroughput(b *testing.B) { benchFigure(b, 12) }

// BenchmarkFig14DisjunctionThroughput regenerates Figures 14/15.
func BenchmarkFig14DisjunctionThroughput(b *testing.B) { benchFigure(b, 14) }

// BenchmarkFig16CostModelValidation regenerates Figure 16.
func BenchmarkFig16CostModelValidation(b *testing.B) { benchFigure(b, 16) }

// BenchmarkFig17aPlanCost and BenchmarkFig17bPlanGenTime regenerate the
// large-pattern study (plan quality and planning time; costs only).
func BenchmarkFig17aPlanCost(b *testing.B) { benchFigure(b, 17) }

// BenchmarkFig17bPlanGenTime times the planning algorithms themselves on a
// size-14 conjunction (the Fig 17b measurement at one size).
func BenchmarkFig17bPlanGenTime(b *testing.B) {
	r := benchHarness()
	p := r.Stocks.Pattern(workload.CatConjunction, 14, r.Cfg.Window, benchRng())
	ps := stats.For(p, r.StatsFor(p))
	model := cost.DefaultModel()
	for _, alg := range []string{core.AlgGreedy, core.AlgIIGreedy, core.AlgDPLD} {
		oa, err := core.NewOrderAlgorithm(alg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oa.Order(ps, model)
			}
		})
	}
	b.Run(core.AlgDPB, func(b *testing.B) {
		ta, _ := core.NewTreeAlgorithm(core.AlgDPB)
		for i := 0; i < b.N; i++ {
			ta.Tree(ps, model)
		}
	})
}

// BenchmarkFig18LatencyTradeoff regenerates Figure 18.
func BenchmarkFig18LatencyTradeoff(b *testing.B) { benchFigure(b, 18) }

// BenchmarkFig19SelectionStrategies regenerates Figure 19.
func BenchmarkFig19SelectionStrategies(b *testing.B) { benchFigure(b, 19) }

// --- engine micro-benchmarks ---

func benchPattern(b *testing.B) (*predicate.Compiled, []*event.Event) {
	b.Helper()
	r := benchHarness()
	p := r.Stocks.Pattern(workload.CatSequence, 4, r.Cfg.Window, benchRng())
	c, err := predicate.Compile(p, predicate.SkipTillAnyMatch)
	if err != nil {
		b.Fatal(err)
	}
	return c, r.Events
}

func benchRng() *rand.Rand { return rand.New(rand.NewSource(99)) }

// BenchmarkNFAProcess measures raw order-based engine throughput.
func BenchmarkNFAProcess(b *testing.B) {
	c, events := benchPattern(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := nfa.New(c, c.Positives, nfa.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			e.Process(ev)
		}
		e.Flush()
	}
	b.SetBytes(int64(len(events)))
}

// BenchmarkTreeProcess measures raw tree-based engine throughput.
func BenchmarkTreeProcess(b *testing.B) {
	c, events := benchPattern(b)
	r := benchHarness()
	p := r.Stocks.Pattern(workload.CatSequence, 4, r.Cfg.Window, benchRng())
	st := stats.For(p, r.StatsFor(p))
	root := core.DPB{}.Tree(st, cost.DefaultModel())
	// Map planning indices to term positions (all positive here).
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := tree.New(c, root, tree.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			e.Process(ev)
		}
		e.Flush()
	}
	b.SetBytes(int64(len(events)))
}

// --- sharded runtime benchmarks ---

var (
	shardBenchOnce   sync.Once
	shardBenchEvents []*Event
	shardBenchP      *Pattern
	shardBenchStats  *Stats
)

// shardBench shares one partitioned workload across the sharded benchmarks.
func shardBench(b *testing.B) ([]*Event, *Pattern, *Stats) {
	shardBenchOnce.Do(func() {
		shardBenchEvents, shardBenchP, shardBenchStats = shardWorkload(b, 20000, 32)
	})
	return shardBenchEvents, shardBenchP, shardBenchStats
}

// BenchmarkPartitionedSequential is the single-goroutine baseline the
// sharded runtime is measured against: the same partitioned stream through
// the sequential PartitionedRuntime.
func BenchmarkPartitionedSequential(b *testing.B) {
	events, p, st := shardBench(b)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := NewPartitioned(p, st, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if _, err := pr.Process(ev); err != nil {
				b.Fatal(err)
			}
		}
		pr.Flush()
	}
}

// BenchmarkShardedThroughput measures the sharded runtime at doubling
// worker counts (compare ns/op against BenchmarkPartitionedSequential; the
// speedup materialises with GOMAXPROCS >= workers). Bytes/s is events/s.
func BenchmarkShardedThroughput(b *testing.B) {
	events, p, st := shardBench(b)
	workers := []int{1, 2, 4, 8}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr, err := NewSharded(p, st, nil, ShardConfig{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if err := sr.Start(); err != nil {
					b.Fatal(err)
				}
				const batch = 512
				for j := 0; j < len(events); j += batch {
					end := j + batch
					if end > len(events) {
						end = len(events)
					}
					if err := sr.SubmitBatch(events[j:end]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sr.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSubmit isolates the routing and queueing overhead of the
// submission path: one worker, one event per call, and an event type that
// no pattern term accepts, so the engine contributes only its type filter.
// Resubmitting the same event keeps timestamps trivially non-decreasing.
func BenchmarkShardedSubmit(b *testing.B) {
	events, p, st := shardBench(b)
	var ev *Event
	for _, e := range events {
		if e.Type == "S007" { // not a term of the benchmark pattern
			ev = e
			break
		}
	}
	if ev == nil {
		b.Fatal("no S007 event in workload")
	}
	sr, err := NewSharded(p, st, nil, ShardConfig{Workers: 1, QueueLen: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	if err := sr.Start(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sr.Submit(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sr.Close()
}

// BenchmarkPlannerAlgorithms times full planning (stats assembly included)
// for a size-6 sequence.
func BenchmarkPlannerAlgorithms(b *testing.B) {
	r := benchHarness()
	p := r.Stocks.Pattern(workload.CatSequence, 6, r.Cfg.Window, benchRng())
	st := r.StatsFor(p)
	for _, alg := range []string{core.AlgGreedy, core.AlgDPLD, core.AlgZStream, core.AlgDPB} {
		b.Run(alg, func(b *testing.B) {
			planner := core.NewPlanner(alg)
			for i := 0; i < b.N; i++ {
				if _, err := planner.Plan(p, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
