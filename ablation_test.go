package cep

// Ablation benchmarks for three design choices: the Section 5.3 early
// negation placement, the Kleene base cap, and reordering itself (planned
// vs trivial orders).

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/nfa"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/workload"
)

// negationWorkload builds a negation-heavy pattern and stream.
func negationWorkload(b *testing.B) (*predicate.Compiled, []*event.Event, []int) {
	b.Helper()
	stocks := workload.NewStocks(workload.StockConfig{Symbols: 8, Events: 6000, Seed: 5, MinRate: 1, MaxRate: 5})
	events := stocks.Generate()
	p := pattern.Seq(2*event.Second,
		pattern.E(stocks.Symbols[0], "a"),
		pattern.Not(stocks.Symbols[1], "n"),
		pattern.E(stocks.Symbols[2], "c"),
		pattern.E(stocks.Symbols[3], "d"),
	)
	c, err := predicate.Compile(p, predicate.SkipTillAnyMatch)
	if err != nil {
		b.Fatal(err)
	}
	return c, events, []int{0, 2, 3}
}

// BenchmarkAblationEarlyNegation measures the Section 5.3 early check
// against deferring every negation to completion.
func BenchmarkAblationEarlyNegation(b *testing.B) {
	c, events, order := negationWorkload(b)
	run := func(b *testing.B, disable bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			e, err := nfa.New(c, order, nfa.Config{DisableEarlyNegation: disable})
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
	b.Run("early", func(b *testing.B) { run(b, false) })
	b.Run("at-completion", func(b *testing.B) { run(b, true) })
}

// TestEarlyNegationAblationEquivalent proves the flag changes performance
// only, never the match set.
func TestEarlyNegationAblationEquivalent(t *testing.T) {
	stocks := workload.NewStocks(workload.StockConfig{Symbols: 8, Events: 3000, Seed: 6, MinRate: 1, MaxRate: 5})
	events := stocks.Generate()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		p := stocks.Pattern(workload.CatNegation, 4, 2*event.Second, rng)
		c, err := predicate.Compile(p, predicate.SkipTillAnyMatch)
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) []*match.Match {
			e, err := nfa.New(c, c.Positives, nfa.Config{DisableEarlyNegation: disable})
			if err != nil {
				t.Fatal(err)
			}
			var out []*match.Match
			for _, ev := range events {
				out = append(out, append([]*match.Match(nil), e.Process(ev)...)...)
			}
			return append(out, e.Flush()...)
		}
		early := run(false)
		late := run(true)
		extra, missing := match.Diff(early, late)
		if len(extra) != 0 || len(missing) != 0 {
			t.Fatalf("ablation changed semantics: extra=%v missing=%v (%s)", extra, missing, p)
		}
	}
}

// BenchmarkAblationPlannedVsTrivial quantifies what plan generation buys on
// the four-cameras scenario: the same engine run under the trivial and the
// DP-optimal order.
func BenchmarkAblationPlannedVsTrivial(b *testing.B) {
	r := benchHarness()
	p := r.Stocks.Pattern(workload.CatConjunction, 5, r.Cfg.Window, benchRng())
	for _, alg := range []string{core.AlgTrivial, core.AlgDPLD} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.RunPattern(alg, p, predicate.SkipTillAnyMatch, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKleeneCap sweeps the Kleene base cap, the knob bounding
// Theorem 4's power-set blow-up.
func BenchmarkAblationKleeneCap(b *testing.B) {
	stocks := workload.NewStocks(workload.StockConfig{Symbols: 8, Events: 4000, Seed: 7, MinRate: 1, MaxRate: 3})
	events := stocks.Generate()
	p := pattern.Seq(event.Second,
		pattern.E(stocks.Symbols[0], "a"),
		pattern.KL(stocks.Symbols[1], "k"),
	)
	c, err := predicate.Compile(p, predicate.SkipTillAnyMatch)
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{2, 6, 10} {
		b.Run(map[int]string{2: "cap2", 6: "cap6", 10: "cap10"}[cap], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := nfa.New(c, c.Positives, nfa.Config{MaxKleeneBase: cap})
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range events {
					e.Process(ev)
				}
				e.Flush()
			}
			b.SetBytes(int64(len(events)))
		})
	}
}
