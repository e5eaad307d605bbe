package enginetest

import (
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/nfa"
	"repro/internal/predicate"
)

// TestNFAProcessBatchEqualsPerEvent pins the NFA's batched entry point to
// its per-event semantics: over random patterns with negation and Kleene
// closure, under both consumption strategies and several batch sizes,
// ProcessBatch (then Flush) returns exactly the in-order concatenation of
// the Process (then Flush) outputs.
func TestNFAProcessBatchEqualsPerEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	keys := func(ms []*match.Match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Key()
		}
		return out
	}
	total := 0
	for _, strat := range []predicate.Strategy{predicate.SkipTillAnyMatch, predicate.SkipTillNextMatch} {
		for trial := 0; trial < 40; trial++ {
			p := RandomPattern(rng, testWindow, trial%2 == 0, trial%3 == 0)
			c := compileOrFail(t, p, predicate.SkipTillAnyMatch)
			events := Stream(rng, 300, TypeNames, 3)
			cfg := nfa.Config{Strategy: strat, MaxKleeneBase: 5}

			Reset(events)
			ref, _, err := RunNFA(c, c.Positives, events, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := keys(ref)
			total += len(want)
			for _, size := range []int{1, 7, 64} {
				Reset(events)
				e, err := nfa.New(c, c.Positives, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for i := 0; i < len(events); i += size {
					got = append(got, keys(e.ProcessBatch(events[i:min(i+size, len(events))]))...)
				}
				got = append(got, keys(e.Flush())...)
				if len(got) != len(want) {
					t.Fatalf("%s %s batch=%d: %d matches, want %d", strat, p, size, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s batch=%d: match %d = %s, want %s", strat, p, size, i, got[i], want[i])
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no matches in any trial — test exercises nothing")
	}
}
