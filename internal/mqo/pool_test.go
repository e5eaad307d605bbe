package mqo

import (
	"testing"

	"math/rand"

	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// leakQueries builds an overlapping query set that exercises every pooled
// instance life-path in the shared DAG: a fully shared A⋈B sub-join, a
// three-way extension on top of it, an inner negation (kill paths), a
// trailing negation (pending queue), and a keyed component whose equi-join
// edges are indexed (index sweep before recycling, index rebuild on
// adoption).
func leakQueries(t testing.TB) []*qstate {
	t.Helper()
	st := stats.New()
	mk := func(name string, p *pattern.Pattern) *qstate {
		return newQState(Query{Name: name, SP: planSimple(t, p, st, core.AlgZStream)})
	}
	return []*qstate{
		mk("ab", seqAB(20, "a", "b")),
		mk("abc", pattern.Seq(20,
			pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")).
			Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))),
		mk("inner-neg", pattern.Seq(20,
			pattern.E("A", "a"), pattern.Not("D", "nd"), pattern.E("B", "b"))),
		mk("trailing-neg", pattern.Seq(20,
			pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc"))),
		mk("keyed-abc", pattern.Seq(20,
			pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")).
			Where(pattern.AttrCmp("a", "x", pattern.Eq, "b", "x"),
				pattern.AttrCmp("b", "x", pattern.Eq, "c", "x"))),
		mk("keyed-neg", pattern.Seq(20,
			pattern.E("A", "a"), pattern.Not("D", "nd"), pattern.E("D", "d")).
			Where(pattern.AttrCmp("a", "x", pattern.Eq, "d", "x"))),
	}
}

func assertNoLeak(t *testing.T, e *Engine, label string) {
	t.Helper()
	ps := e.PoolStats()
	if ps.Gets == 0 {
		t.Fatalf("%s: pool never used (Gets = 0)", label)
	}
	if live := ps.Live(); live != 0 {
		t.Fatalf("%s: %d pooled instances leaked (stats %+v)", label, live, ps)
	}
	if n := indexEntries(e); n != 0 {
		t.Fatalf("%s: %d join-index entries survive Close", label, n)
	}
}

// TestPoolNoLeakAfterClose feeds a long random stream through the shared
// DAG — half per event, half batched — and asserts the freelist's exact
// accounting balances after Flush and Close, with actual reuse observed.
func TestPoolNoLeakAfterClose(t *testing.T) {
	eng, err := buildEngine(leakQueries(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	events := enginetest.Stream(rng, 4000, enginetest.TypeNames, 2)
	half := len(events) / 2
	for i, ev := range events[:half] {
		eng.Process(ev, uint64(i+1))
	}
	for i := half; i < len(events); i += 64 {
		end := i + 64
		if end > len(events) {
			end = len(events)
		}
		eng.ProcessBatch(events[i:end], uint64(i+1))
	}
	eng.Flush()
	eng.Close()
	assertNoLeak(t, eng, "after close")
	ps := eng.PoolStats()
	if ps.News >= ps.Gets {
		t.Fatalf("no reuse: News=%d Gets=%d", ps.News, ps.Gets)
	}
}

// TestPoolNoLeakAcrossSplice replays the adaptive re-optimization handoff:
// the successor deep-copies live state via AdoptFrom, the predecessor
// recycles everything into its own pool at Close, and both pools must
// balance — adopted instances never alias a recycled one.
func TestPoolNoLeakAcrossSplice(t *testing.T) {
	old, err := buildEngine(leakQueries(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	events := enginetest.Stream(rng, 3000, enginetest.TypeNames, 2)
	half := len(events) / 2
	for i, ev := range events[:half] {
		old.Process(ev, uint64(i+1))
	}
	if old.CurrentPartial() == 0 || indexEntries(old) == 0 {
		t.Fatal("no live (indexed) state at splice point — test exercises nothing")
	}

	succ, err := buildEngine(leakQueries(t))
	if err != nil {
		t.Fatal(err)
	}
	succ.AdoptFrom([]*Engine{old}, uint64(half))
	checkIndexes(t, succ)
	old.Close()
	assertNoLeak(t, old, "predecessor after splice")

	for i := half; i < len(events); i++ {
		succ.Process(events[i], uint64(i+1))
	}
	succ.Flush()
	succ.Close()
	assertNoLeak(t, succ, "successor after splice")
}
