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

// TestRetainedMatchesIntact keeps every returned match — trailing-negation
// pendings included — across hundreds of batches and checks at the end
// that each still has the key it had when it was returned: no arena chunk
// and no pooled instance is reused under a delivered match.
func TestRetainedMatchesIntact(t *testing.T) {
	eng, err := buildEngine(leakQueries(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	events := enginetest.Stream(rng, 6400, enginetest.TypeNames, 2)
	var kept []Tagged
	var keys []string
	keep := func(tms []Tagged) {
		for _, tm := range tms {
			kept = append(kept, tm)
			keys = append(keys, tm.M.Key())
		}
	}
	for i := 0; i < len(events); i += 32 { // 200 batches
		keep(eng.ProcessBatch(events[i:min(i+32, len(events))], uint64(i+1)))
	}
	keep(eng.Flush())
	perQuery := map[string]int{}
	for i, tm := range kept {
		perQuery[tm.Query]++
		if got := tm.M.Key(); got != keys[i] {
			t.Fatalf("%s: match %d changed after delivery: %s, was %s", tm.Query, i, got, keys[i])
		}
	}
	for _, name := range eng.Names() {
		if perQuery[name] == 0 {
			t.Fatalf("query %s emitted nothing — test exercises nothing there", name)
		}
	}
}

// TestProcessBatchAllocs guards the allocation-lean emission of the shared
// DAG: in steady state, shared, keyed and negation members together cost
// well under one allocation per event, matches included.
func TestProcessBatchAllocs(t *testing.T) {
	qs := leakQueries(t)
	var lean []*qstate
	for _, q := range qs {
		if q.name != "trailing-neg" { // pendings are allocated one by one
			lean = append(lean, q)
		}
	}
	eng, err := buildEngine(lean)
	if err != nil {
		t.Fatal(err)
	}
	const batch, runs = 64, 50
	events := enginetest.Stream(rand.New(rand.NewSource(9)), batch*(2*runs+1), enginetest.TypeNames, 2)
	next, matches := 0, 0
	feed := func() {
		matches += len(eng.ProcessBatch(events[next:next+batch], uint64(next+1)))
		next += batch
	}
	for range runs { // warm up free list, buffers and indexes
		feed()
	}
	perEvent := testing.AllocsPerRun(runs, feed) / batch
	if matches == 0 {
		t.Fatal("no matches — guard measures nothing")
	}
	t.Logf("%.3f allocations per event, %d matches", perEvent, matches)
	if perEvent >= 0.5 {
		t.Fatalf("%.2f allocations per event, want < 0.5", perEvent)
	}
}
