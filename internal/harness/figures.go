package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/workload"
)

// categoryResults runs every algorithm over every category's pattern set
// once and caches the aggregate per (kind, algorithm, category). It backs
// Figures 4 and 5.
type categoryResults struct {
	order map[string]map[workload.Category]*avg
	tree  map[string]map[workload.Category]*avg
}

func (r *Runner) categoryResults() (*categoryResults, error) {
	out := &categoryResults{
		order: map[string]map[workload.Category]*avg{},
		tree:  map[string]map[workload.Category]*avg{},
	}
	for _, cat := range workload.Categories() {
		pats := r.Stocks.PatternSet(cat, r.Cfg.Sizes, r.Cfg.PerSize, r.Cfg.Window, r.Cfg.Seed+int64(len(cat)))
		for _, alg := range append(core.OrderAlgorithmNames(), core.TreeAlgorithmNames()...) {
			store := out.order
			if _, err := core.NewTreeAlgorithm(alg); err == nil {
				store = out.tree
			}
			if store[alg] == nil {
				store[alg] = map[workload.Category]*avg{}
			}
			if store[alg][cat] == nil {
				store[alg][cat] = &avg{}
			}
			for _, p := range pats {
				res, err := r.RunPattern(alg, p, predicate.SkipTillAnyMatch, 0)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", alg, p, err)
				}
				store[alg][cat].add(res)
			}
		}
	}
	return out, nil
}

func categoryTable(title, metric string, algs []string,
	data map[string]map[workload.Category]*avg, pick func(*avg) float64, format func(float64) string) Table {
	cols := []string{"algorithm"}
	for _, cat := range workload.Categories() {
		cols = append(cols, string(cat))
	}
	t := Table{Title: title + " — " + metric, Columns: cols}
	for _, alg := range algs {
		row := []string{alg}
		for _, cat := range workload.Categories() {
			row = append(row, format(pick(data[alg][cat])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4And5 runs the Figure 4 (throughput) and Figure 5 (memory) experiment
// once and returns the four tables: order-based/tree-based × metric.
func (r *Runner) Fig4And5() ([]Table, error) {
	data, err := r.categoryResults()
	if err != nil {
		return nil, err
	}
	return []Table{
		categoryTable("Fig 4a: order-based methods by pattern category", "throughput (events/s)",
			core.OrderAlgorithmNames(), data.order, (*avg).Throughput, f0),
		categoryTable("Fig 4b: tree-based methods by pattern category", "throughput (events/s)",
			core.TreeAlgorithmNames(), data.tree, (*avg).Throughput, f0),
		categoryTable("Fig 5a: order-based methods by pattern category", "memory (KB, peak state)",
			core.OrderAlgorithmNames(), data.order, (*avg).Bytes, kb),
		categoryTable("Fig 5b: tree-based methods by pattern category", "memory (KB, peak state)",
			core.TreeAlgorithmNames(), data.tree, (*avg).Bytes, kb),
	}, nil
}

// FigSize reproduces Figures 6–15: throughput and memory as a function of
// pattern size for one category; which figure pair depends on the category
// (6/7 sequence, 8/9 negation, 10/11 conjunction, 12/13 Kleene,
// 14/15 disjunction).
func (r *Runner) FigSize(cat workload.Category) ([]Table, error) {
	figThr := map[workload.Category]string{
		workload.CatSequence: "6", workload.CatNegation: "8", workload.CatConjunction: "10",
		workload.CatKleene: "12", workload.CatDisjunction: "14",
	}[cat]
	figMem := map[workload.Category]string{
		workload.CatSequence: "7", workload.CatNegation: "9", workload.CatConjunction: "11",
		workload.CatKleene: "13", workload.CatDisjunction: "15",
	}[cat]
	type key struct {
		alg  string
		size int
	}
	agg := map[key]*avg{}
	algs := append(core.OrderAlgorithmNames(), core.TreeAlgorithmNames()...)
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 1000))
	for _, size := range r.Cfg.Sizes {
		for k := 0; k < r.Cfg.PerSize; k++ {
			p := r.Stocks.Pattern(cat, size, r.Cfg.Window, rng)
			for _, alg := range algs {
				res, err := r.RunPattern(alg, p, predicate.SkipTillAnyMatch, 0)
				if err != nil {
					return nil, err
				}
				a := agg[key{alg, size}]
				if a == nil {
					a = &avg{}
					agg[key{alg, size}] = a
				}
				a.add(res)
			}
		}
	}
	mk := func(fig, metric string, names []string, pick func(*avg) float64, format func(float64) string) Table {
		cols := []string{"size"}
		cols = append(cols, names...)
		t := Table{
			Title:   fmt.Sprintf("Fig %s: %s patterns — %s by size", fig, cat, metric),
			Columns: cols,
		}
		for _, size := range r.Cfg.Sizes {
			row := []string{fmt.Sprint(size)}
			for _, alg := range names {
				row = append(row, format(pick(agg[key{alg, size}])))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	return []Table{
		mk(figThr+"a", "throughput (events/s)", core.OrderAlgorithmNames(), (*avg).Throughput, f0),
		mk(figThr+"b", "throughput (events/s)", core.TreeAlgorithmNames(), (*avg).Throughput, f0),
		mk(figMem+"a", "memory (KB)", core.OrderAlgorithmNames(), (*avg).Bytes, kb),
		mk(figMem+"b", "memory (KB)", core.TreeAlgorithmNames(), (*avg).Bytes, kb),
	}, nil
}

// Fig16 validates the cost model: it executes a spread of plans and reports
// measured throughput and memory against the plan's model cost. The paper
// observes throughput ≈ c/cost and memory ≈ linear in cost.
func (r *Runner) Fig16() ([]Table, error) {
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 2000))
	type point struct {
		kind       string
		alg        string
		cost       float64
		throughput float64
		peak       float64
	}
	var points []point
	cats := []workload.Category{workload.CatSequence, workload.CatConjunction}
	sizes := []int{3, 4, 5}
	for _, cat := range cats {
		for _, size := range sizes {
			p := r.Stocks.Pattern(cat, size, r.Cfg.Window, rng)
			st := r.StatsFor(p)
			for _, alg := range append(core.OrderAlgorithmNames(), core.TreeAlgorithmNames()...) {
				planner := &core.Planner{Algorithm: alg, Strategy: predicate.SkipTillAnyMatch}
				pl, err := planner.Plan(p, st)
				if err != nil {
					return nil, err
				}
				res, err := r.RunPattern(alg, p, predicate.SkipTillAnyMatch, 0)
				if err != nil {
					return nil, err
				}
				kind := "order"
				if pl.Simple[0].IsTree() {
					kind = "tree"
				}
				points = append(points, point{
					kind:       kind,
					alg:        alg,
					cost:       pl.TotalCost,
					throughput: res.Throughput,
					peak:       float64(res.PeakPartial),
				})
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].cost < points[j].cost })
	t := Table{
		Title:   "Fig 16: throughput and memory vs plan cost (sorted by cost)",
		Columns: []string{"kind", "algorithm", "plan cost", "throughput (ev/s)", "peak partial matches"},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []string{pt.kind, pt.alg, f1(pt.cost), f0(pt.throughput), f0(pt.peak)})
	}
	return []Table{t}, nil
}

// Fig17 reproduces the large-pattern plan-quality and plan-generation-time
// study: normalized plan cost (cost of the empirically worst EFREQ plan
// divided by the algorithm's plan cost, higher is better) and generation
// time, for sizes up to 22. Plans are costed, not executed, exactly as in
// the paper. DP algorithms are capped (Config.MaxDPLDSize / MaxDPBSize).
func (r *Runner) Fig17() ([]Table, error) {
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 3000))
	algs := []string{core.AlgEFreq, core.AlgGreedy, core.AlgIIRandom, core.AlgIIGreedy,
		core.AlgDPLD, core.AlgZStream, core.AlgZStreamOrd, core.AlgDPB}
	costT := Table{Title: "Fig 17a: normalized plan cost vs EFREQ (higher is better)",
		Columns: append([]string{"size"}, algs...)}
	timeT := Table{Title: "Fig 17b: plan generation time (ms, log-scale in the paper)",
		Columns: append([]string{"size"}, algs...)}
	for _, size := range r.Cfg.LargeSizes {
		if size > r.Cfg.Symbols {
			continue
		}
		p := r.Stocks.Pattern(workload.CatConjunction, size, r.Cfg.Window, rng)
		st := r.StatsFor(p)
		ps := stats.For(p, st)
		model := cost.DefaultModel()
		baseline := cost.Order(ps, core.EFreq{}.Order(ps, model))
		costRow := []string{fmt.Sprint(size)}
		timeRow := []string{fmt.Sprint(size)}
		for _, alg := range algs {
			if (alg == core.AlgDPLD && size > r.Cfg.MaxDPLDSize) ||
				(alg == core.AlgDPB && size > r.Cfg.MaxDPBSize) {
				costRow = append(costRow, "-")
				timeRow = append(timeRow, "-")
				continue
			}
			start := time.Now()
			var planCost float64
			if oa, err := core.NewOrderAlgorithm(alg); err == nil {
				order := oa.Order(ps, model)
				planCost = cost.Order(ps, order)
			} else {
				ta, err := core.NewTreeAlgorithm(alg)
				if err != nil {
					return nil, err
				}
				root := ta.Tree(ps, model)
				planCost = cost.Tree(ps, root)
			}
			elapsed := time.Since(start)
			costRow = append(costRow, f2(baseline/planCost))
			timeRow = append(timeRow, fmt.Sprintf("%.3f", float64(elapsed.Microseconds())/1000))
		}
		costT.Rows = append(costT.Rows, costRow)
		timeT.Rows = append(timeT.Rows, timeRow)
	}
	return []Table{costT, timeT}, nil
}

// Fig18 reproduces the throughput/latency trade-off study: every
// JQPG-adapted method under α ∈ {0, 0.5, 1} on the sequence set.
func (r *Runner) Fig18() ([]Table, error) {
	algs := []string{core.AlgGreedy, core.AlgIIRandom, core.AlgIIGreedy,
		core.AlgDPLD, core.AlgZStreamOrd, core.AlgDPB}
	alphas := []float64{0, 0.5, 1}
	t := Table{
		Title: "Fig 18: throughput vs latency under the hybrid cost model",
		Columns: []string{"algorithm", "alpha", "throughput (ev/s)",
			"predicted Cost_lat", "measured latency (ms)"},
	}
	pats := r.Stocks.PatternSet(workload.CatSequence, r.Cfg.Sizes, r.Cfg.PerSize, r.Cfg.Window, r.Cfg.Seed+4000)
	for _, alg := range algs {
		for _, alpha := range alphas {
			a := &avg{}
			predictedLat := 0.0
			for _, p := range pats {
				res, err := r.RunPattern(alg, p, predicate.SkipTillAnyMatch, alpha)
				if err != nil {
					return nil, err
				}
				a.add(res)
				lat, err := r.predictedLatency(alg, p, alpha)
				if err != nil {
					return nil, err
				}
				predictedLat += lat
			}
			t.Rows = append(t.Rows, []string{alg, f2(alpha), f0(a.Throughput()),
				f1(predictedLat / float64(len(pats))),
				fmt.Sprintf("%.4f", a.LatencyMs())})
		}
	}
	return []Table{t}, nil
}

// predictedLatency evaluates Cost_lat of the plan the algorithm chooses
// under the given α — the model quantity Figure 18 trades against
// throughput.
func (r *Runner) predictedLatency(alg string, p *pattern.Pattern, alpha float64) (float64, error) {
	st := r.StatsFor(p)
	planner := &core.Planner{Algorithm: alg, Strategy: predicate.SkipTillAnyMatch, Alpha: alpha}
	pl, err := planner.Plan(p, st)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, sp := range pl.Simple {
		last := sp.Model.LastPos
		if last < 0 && sp.Compiled.IsSeq {
			last = sp.Stats.N() - 1
		}
		if sp.IsTree() {
			total += cost.TreeLatency(sp.Stats, sp.Tree, last)
		} else {
			total += cost.OrderLatency(sp.Stats, sp.Order, last)
		}
	}
	return total, nil
}

// Fig19 reproduces the selection-strategy study: throughput of every
// algorithm under skip-till-any-match, skip-till-next-match and strict
// contiguity on the sequence set (the paper plots these in log scale).
func (r *Runner) Fig19() ([]Table, error) {
	strategies := []predicate.Strategy{
		predicate.SkipTillAnyMatch, predicate.SkipTillNextMatch, predicate.StrictContiguity,
	}
	mk := func(sub string, algs []string) (Table, error) {
		cols := []string{"algorithm"}
		for _, s := range strategies {
			cols = append(cols, s.String())
		}
		t := Table{Title: "Fig 19" + sub + ": throughput (events/s) by selection strategy", Columns: cols}
		pats := r.Stocks.PatternSet(workload.CatSequence, r.Cfg.Sizes, r.Cfg.PerSize, r.Cfg.Window, r.Cfg.Seed+5000)
		for _, alg := range algs {
			row := []string{alg}
			for _, strat := range strategies {
				a := &avg{}
				for _, p := range pats {
					res, err := r.RunPattern(alg, p, strat, 0)
					if err != nil {
						return Table{}, err
					}
					a.add(res)
				}
				row = append(row, f0(a.Throughput()))
			}
			t.Rows = append(t.Rows, row)
		}
		return t, nil
	}
	a, err := mk("a", core.OrderAlgorithmNames())
	if err != nil {
		return nil, err
	}
	b, err := mk("b", core.TreeAlgorithmNames())
	if err != nil {
		return nil, err
	}
	return []Table{a, b}, nil
}

// Figure dispatches a figure number to its harness. Figures 4/5 and the
// size studies produce multiple tables.
func (r *Runner) Figure(n int) ([]Table, error) {
	switch n {
	case 4, 5:
		return r.Fig4And5()
	case 6, 7:
		return r.FigSize(workload.CatSequence)
	case 8, 9:
		return r.FigSize(workload.CatNegation)
	case 10, 11:
		return r.FigSize(workload.CatConjunction)
	case 12, 13:
		return r.FigSize(workload.CatKleene)
	case 14, 15:
		return r.FigSize(workload.CatDisjunction)
	case 16:
		return r.Fig16()
	case 17:
		return r.Fig17()
	case 18:
		return r.Fig18()
	case 19:
		return r.Fig19()
	}
	return nil, fmt.Errorf("harness: no figure %d (evaluation figures are 4–19)", n)
}

// AllFigures lists the figure numbers with distinct harnesses.
func AllFigures() []int { return []int{4, 6, 8, 10, 12, 14, 16, 17, 18, 19} }
