package tree

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predicate"
)

// randEvents draws n events over the A–D schemas with small random
// timestamp gaps and x in 0..9, serial-stamped. Kept local: enginetest
// cannot be imported from this package's tests without an import cycle
// through repro.
func randEvents(seed int64, n int) []*event.Event {
	rng := rand.New(rand.NewSource(seed))
	schemas := []*event.Schema{schemaA, schemaB, schemaC, schemaD}
	evs := make([]*event.Event, n)
	ts := event.Time(0)
	for i := range evs {
		ts += event.Time(1 + rng.Int63n(3))
		evs[i] = event.New(schemas[rng.Intn(len(schemas))], ts, float64(rng.Intn(10)))
	}
	return stream(evs)
}

// drainKeys feeds the whole stream per event and returns the match keys in
// emission order, leaving the engine flushed.
func drainKeys(e *Engine, evs []*event.Event) []string {
	var keys []string
	for _, ev := range evs {
		for _, m := range e.Process(ev) {
			keys = append(keys, m.Key())
		}
	}
	for _, m := range e.Flush() {
		keys = append(keys, m.Key())
	}
	return keys
}

// assertNoLeak checks the exact-accounting invariant: after Flush and
// Close every instance handed out by the freelist came back.
func assertNoLeak(t *testing.T, e *Engine, label string) {
	t.Helper()
	e.Close()
	ps := e.PoolStats()
	if ps.Gets == 0 {
		t.Fatalf("%s: pool never used (Gets = 0)", label)
	}
	if live := ps.Live(); live != 0 {
		t.Fatalf("%s: %d pooled instances leaked (stats %+v)", label, live, ps)
	}
}

// TestPoolNoLeak runs pattern shapes that exercise every instance
// life-path — buffered joins, negation vetoes, trailing-negation pendings,
// Kleene leaf groups, window expiry — under both consumption strategies,
// and asserts zero live pooled instances after Flush+Close.
func TestPoolNoLeak(t *testing.T) {
	shapes := []struct {
		name string
		p    *pattern.Pattern
		root *plan.TreeNode
	}{
		{
			"seq",
			pattern.Seq(8, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")),
			plan.Join(plan.Join(plan.LeafNode(0), plan.LeafNode(1)), plan.LeafNode(2)),
		},
		{
			"inner-negation",
			pattern.Seq(8, pattern.E("A", "a"), pattern.Not("B", "nb"), pattern.E("C", "c"), pattern.E("D", "d")),
			plan.Join(plan.Join(plan.LeafNode(0), plan.LeafNode(2)), plan.LeafNode(3)),
		},
		{
			"trailing-negation",
			pattern.Seq(6, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc")),
			plan.Join(plan.LeafNode(0), plan.LeafNode(1)),
		},
		{
			"kleene",
			pattern.And(8, pattern.E("A", "a"), pattern.KL("B", "b")),
			plan.Join(plan.LeafNode(0), plan.LeafNode(1)),
		},
		{
			"predicated",
			pattern.Seq(10, pattern.E("A", "a"), pattern.E("B", "b")).
				Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x")),
			plan.Join(plan.LeafNode(0), plan.LeafNode(1)),
		},
	}
	strategies := []predicate.Strategy{predicate.SkipTillAnyMatch, predicate.SkipTillNextMatch}
	for _, sh := range shapes {
		for _, strat := range strategies {
			sh, strat := sh, strat
			t.Run(sh.name+"/"+strat.String(), func(t *testing.T) {
				c := compile(t, sh.p, predicate.SkipTillAnyMatch)
				e, err := New(c, sh.root, Config{Strategy: strat, MaxKleeneBase: 8})
				if err != nil {
					t.Fatal(err)
				}
				drainKeys(e, randEvents(42, 3000))
				assertNoLeak(t, e, sh.name)
			})
		}
	}
}

// TestPoolCloseWithoutFlush covers the abandoning path: Close on a live
// engine must reclaim buffered instances and pendings it never emitted.
func TestPoolCloseWithoutFlush(t *testing.T) {
	p := pattern.Seq(6, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc"))
	c := compile(t, p, predicate.SkipTillAnyMatch)
	e, err := New(c, plan.Join(plan.LeafNode(0), plan.LeafNode(1)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range randEvents(7, 1000) {
		e.Process(ev)
	}
	assertNoLeak(t, e, "close-without-flush")
	e.Close() // idempotent: a second Close must not double-recycle
	if live := e.PoolStats().Live(); live != 0 {
		t.Fatalf("double Close changed accounting: Live = %d", live)
	}
}

// TestProcessBatchMatchesPerEvent pins the batched entry point to the
// per-event semantics: identical match key sequences over an identical
// stream, across shapes with buffering, negation and Kleene state.
func TestProcessBatchMatchesPerEvent(t *testing.T) {
	p := pattern.Seq(8, pattern.E("A", "a"), pattern.Not("B", "nb"), pattern.E("C", "c"), pattern.E("D", "d")).
		Where(pattern.AttrCmp("a", "x", pattern.Le, "d", "x"))
	c := compile(t, p, predicate.SkipTillAnyMatch)
	root := plan.Join(plan.Join(plan.LeafNode(0), plan.LeafNode(2)), plan.LeafNode(3))

	evs := randEvents(99, 2000)
	ref, err := New(c, root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := drainKeys(ref, evs)

	for _, batch := range []int{1, 16, 256} {
		e, err := New(c, root, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < len(evs); i += batch {
			end := i + batch
			if end > len(evs) {
				end = len(evs)
			}
			for _, m := range e.ProcessBatch(evs[i:end]) {
				got = append(got, m.Key())
			}
		}
		for _, m := range e.Flush() {
			got = append(got, m.Key())
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d matches, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: match %d = %s, want %s", batch, i, got[i], want[i])
			}
		}
		assertNoLeak(t, e, "batched")
	}
}

// TestRetainedMatchesIntact keeps every returned match across hundreds of
// batches and checks at the end that each still has the key it had when
// it was returned: no arena chunk and no pooled table is reused under a
// delivered match.
func TestRetainedMatchesIntact(t *testing.T) {
	shapes := []struct {
		name string
		p    *pattern.Pattern
		root *plan.TreeNode
	}{
		{
			"seq",
			pattern.Seq(8, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")),
			plan.Join(plan.LeafNode(2), plan.Join(plan.LeafNode(0), plan.LeafNode(1))),
		},
		{
			"trailing-negation",
			pattern.Seq(6, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc")),
			plan.Join(plan.LeafNode(0), plan.LeafNode(1)),
		},
		{
			"kleene",
			pattern.And(8, pattern.E("A", "a"), pattern.KL("B", "b")),
			plan.Join(plan.LeafNode(0), plan.LeafNode(1)),
		},
	}
	for _, sh := range shapes {
		e, err := New(compile(t, sh.p, predicate.SkipTillAnyMatch), sh.root, Config{MaxKleeneBase: 6})
		if err != nil {
			t.Fatal(err)
		}
		evs := randEvents(11, 6400)
		var kept []*match.Match
		var keys []string
		keep := func(ms []*match.Match) {
			for _, m := range ms {
				kept = append(kept, m)
				keys = append(keys, m.Key())
			}
		}
		for i := 0; i < len(evs); i += 32 { // 200 batches
			keep(e.ProcessBatch(evs[i:min(i+32, len(evs))]))
		}
		keep(e.Flush())
		if len(kept) == 0 {
			t.Fatalf("%s: no matches — test exercises nothing", sh.name)
		}
		for i, m := range kept {
			if got := m.Key(); got != keys[i] {
				t.Fatalf("%s: match %d changed after delivery: %s, was %s", sh.name, i, got, keys[i])
			}
		}
	}
}

// TestProcessBatchAllocs guards the allocation-lean emission: in steady
// state a non-Kleene pattern costs well under one allocation per event,
// matches included.
func TestProcessBatchAllocs(t *testing.T) {
	p := pattern.Seq(8, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("D", "nd"), pattern.E("C", "c")).
		Where(pattern.AttrCmp("a", "x", pattern.Le, "c", "x"))
	root := plan.Join(plan.LeafNode(3), plan.Join(plan.LeafNode(0), plan.LeafNode(1)))
	e, err := New(compile(t, p, predicate.SkipTillAnyMatch), root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const batch, runs = 64, 50
	evs := randEvents(3, batch*(2*runs+1))
	next, matches := 0, 0
	feed := func() {
		matches += len(e.ProcessBatch(evs[next : next+batch]))
		next += batch
	}
	for range runs { // warm up free list and buffers
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
