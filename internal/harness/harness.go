// Package harness regenerates every figure of the paper's evaluation
// (Section 7.3, Figures 4–19) on the synthetic stock workload. Each FigN
// function returns tables whose rows/series correspond to the bars/lines of
// the figure; cmd/cepbench prints them and bench_test.go wraps them in
// testing.B benchmarks.
//
// Scale differs from the paper: the default
// configuration runs in seconds on a laptop rather than 1.5 months on the
// full NASDAQ year, so absolute numbers differ while the comparisons the
// paper makes — which method wins, by roughly what factor, where the
// crossovers fall — are preserved.
package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/nfa"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Config scales the experiments. The zero value selects defaults sized for
// interactive runs; multiply Events/PerSize for closer-to-paper fidelity.
type Config struct {
	Symbols int        // stock universe size; default 32
	Events  int        // stream length; default 8000
	Window  event.Time // pattern window; default 4s
	Sizes   []int      // pattern sizes; default 3..7 as in the paper
	PerSize int        // patterns per size per category; default 2
	Seed    int64      // master seed; default 1

	// MinRate/MaxRate scale the per-symbol arrival rates. The defaults
	// (0.3–3 ev/s against a 4 s window) reproduce the paper's
	// events-per-window regime at laptop scale.
	MinRate, MaxRate float64

	// MaxPartial aborts a run whose live partial-match count explodes
	// (bad plans on large conjunctions); default 200000.
	MaxPartial int
	// MaxKleeneBase bounds Kleene power-set enumeration; default 6.
	MaxKleeneBase int
	// LargeSizes are the Fig 17 pattern sizes; default 3..22 stepped.
	LargeSizes []int
	// MaxDPLDSize / MaxDPBSize cap the dynamic programs in Fig 17.
	MaxDPLDSize, MaxDPBSize int
}

func (c Config) withDefaults() Config {
	if c.Symbols <= 0 {
		c.Symbols = 32
	}
	if c.Events <= 0 {
		c.Events = 8000
	}
	if c.Window <= 0 {
		c.Window = 4 * event.Second
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{3, 4, 5, 6, 7}
	}
	if c.PerSize <= 0 {
		c.PerSize = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinRate <= 0 {
		c.MinRate = 0.3
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 3
	}
	if c.MaxPartial <= 0 {
		c.MaxPartial = 200000
	}
	if c.MaxKleeneBase <= 0 {
		c.MaxKleeneBase = 6
	}
	if len(c.LargeSizes) == 0 {
		c.LargeSizes = []int{3, 5, 7, 10, 12, 14, 16, 18, 20, 22}
	}
	if c.MaxDPLDSize <= 0 {
		c.MaxDPLDSize = 18
	}
	if c.MaxDPBSize <= 0 {
		c.MaxDPBSize = 14
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	printRow(rule)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Runner is the shared experiment fixture: one generated stream, its
// measured base statistics, and helpers to plan and execute patterns.
type Runner struct {
	Cfg    Config
	Stocks *workload.Stocks
	Events []*event.Event
	base   *stats.Stats
}

// NewRunner generates the workload once.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	stocks := workload.NewStocks(workload.StockConfig{
		Symbols: cfg.Symbols,
		Events:  cfg.Events,
		MinRate: cfg.MinRate,
		MaxRate: cfg.MaxRate,
		Seed:    cfg.Seed,
	})
	events := stocks.Generate()
	return &Runner{
		Cfg:    cfg,
		Stocks: stocks,
		Events: events,
		base:   stats.Measure(events, nil, nil),
	}
}

// StatsFor measures the pattern's predicate selectivities over the stream,
// reusing the pre-measured arrival rates (the paper's preprocessing stage).
func (r *Runner) StatsFor(p *pattern.Pattern) *stats.Stats {
	st := stats.Measure(r.Events, p.Conds, stats.AliasTypes(p))
	for typ, rate := range r.base.Rates {
		st.SetRate(typ, rate)
	}
	return st
}

// RunPattern plans the pattern with the algorithm and executes the plan
// over the stream, returning the measured result.
func (r *Runner) RunPattern(alg string, p *pattern.Pattern, strategy predicate.Strategy, alpha float64) (metrics.Result, error) {
	st := r.StatsFor(p)
	planner := &core.Planner{Algorithm: alg, Strategy: strategy, Alpha: alpha}
	pl, err := planner.Plan(p, st)
	if err != nil {
		return metrics.Result{}, err
	}
	engines := make([]metrics.Engine, 0, len(pl.Simple))
	for _, sp := range pl.Simple {
		if sp.IsTree() {
			e, err := tree.New(sp.Compiled, sp.TreeTerms(), tree.Config{
				Strategy:      strategy,
				MaxKleeneBase: r.Cfg.MaxKleeneBase,
			})
			if err != nil {
				return metrics.Result{}, err
			}
			engines = append(engines, e)
		} else {
			e, err := nfa.New(sp.Compiled, sp.OrderTerms(), nfa.Config{
				Strategy:      strategy,
				MaxKleeneBase: r.Cfg.MaxKleeneBase,
			})
			if err != nil {
				return metrics.Result{}, err
			}
			engines = append(engines, e)
		}
	}
	events := workload.ResetStream(r.Events)
	return metrics.RunLimit(engines, events, p.Size(), r.Cfg.MaxPartial), nil
}

// avg aggregates results: mean throughput, mean peak-partial, mean bytes,
// mean latency.
type avg struct {
	n          int
	throughput float64
	peak       float64
	bytes      float64
	latencyNs  float64
	matches    int64
	truncated  int
}

func (a *avg) add(r metrics.Result) {
	a.n++
	a.throughput += r.Throughput
	a.peak += float64(r.PeakPartial)
	a.bytes += float64(r.EstBytes)
	a.latencyNs += float64(r.AvgLatency.Nanoseconds())
	a.matches += r.Matches
	if r.Truncated {
		a.truncated++
	}
}

func (a *avg) Throughput() float64 {
	if a.n == 0 {
		return 0
	}
	return a.throughput / float64(a.n)
}

func (a *avg) PeakPartial() float64 {
	if a.n == 0 {
		return 0
	}
	return a.peak / float64(a.n)
}

func (a *avg) Bytes() float64 {
	if a.n == 0 {
		return 0
	}
	return a.bytes / float64(a.n)
}

func (a *avg) LatencyMs() float64 {
	if a.n == 0 {
		return 0
	}
	return a.latencyNs / float64(a.n) / 1e6
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func kb(v float64) string { return fmt.Sprintf("%.1f", v/1024) }
