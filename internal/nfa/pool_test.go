package nfa

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/predicate"
)

var schemaD = event.NewSchema("D", "x")

// randEvents draws n events over the A–D schemas with small random
// timestamp gaps and x in 0..9, serial-stamped. Kept local: enginetest
// cannot be imported from this package's tests without an import cycle.
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

// feedKeys feeds the stream in batches of the given size (1 = per-event
// Process) and returns the match keys in emission order, Flush included.
func feedKeys(e *Engine, evs []*event.Event, batch int) []string {
	var keys []string
	for i := 0; i < len(evs); i += batch {
		var ms []*match.Match
		if batch == 1 {
			ms = e.Process(evs[i])
		} else {
			ms = e.ProcessBatch(evs[i:min(i+batch, len(evs))])
		}
		for _, m := range ms {
			keys = append(keys, m.Key())
		}
	}
	for _, m := range e.Flush() {
		keys = append(keys, m.Key())
	}
	return keys
}

// assertNoLeak checks the exact-accounting invariant: after Flush and
// Close every partial match handed out by the free list came back.
func assertNoLeak(t *testing.T, e *Engine, label string) {
	t.Helper()
	e.Close()
	ps := e.PoolStats()
	if ps.Gets == 0 {
		t.Fatalf("%s: pool never used (Gets = 0)", label)
	}
	if live := ps.Live(); live != 0 {
		t.Fatalf("%s: %d pooled partial matches leaked (stats %+v)", label, live, ps)
	}
}

// poolShapes exercise every partial-match life-path: stored and expired
// levels, early negation kills, completion-time (leading) negation kills,
// trailing-negation pendings killed or released, Kleene groups.
var poolShapes = []struct {
	name  string
	p     *pattern.Pattern
	order []int
}{
	{"seq", pattern.Seq(8, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")), []int{2, 0, 1}},
	{"early-negation", pattern.Seq(8, pattern.E("A", "a"), pattern.Not("B", "nb"), pattern.E("C", "c"), pattern.E("D", "d")), []int{0, 2, 3}},
	{"leading-negation", pattern.Seq(6, pattern.Not("D", "nd"), pattern.E("A", "a"), pattern.E("B", "b")), []int{1, 2}},
	{"trailing-negation", pattern.Seq(6, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc")), []int{1, 0}},
	{"kleene", pattern.And(8, pattern.E("A", "a"), pattern.KL("B", "b")), []int{0, 1}},
	{"predicated", pattern.Seq(10, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x")), []int{0, 1}},
}

// TestPoolNoLeak runs every shape under both consumption strategies, per
// event and batched, and asserts zero live pooled partial matches after
// Flush+Close with actual reuse observed.
func TestPoolNoLeak(t *testing.T) {
	strategies := []predicate.Strategy{predicate.SkipTillAnyMatch, predicate.SkipTillNextMatch}
	for _, sh := range poolShapes {
		for _, strat := range strategies {
			for _, batch := range []int{1, 64} {
				c := compile(t, sh.p, predicate.SkipTillAnyMatch)
				e, err := New(c, sh.order, Config{Strategy: strat, MaxKleeneBase: 6})
				if err != nil {
					t.Fatal(err)
				}
				label := sh.name + "/" + strat.String()
				if len(feedKeys(e, randEvents(42, 3000), batch)) == 0 {
					t.Fatalf("%s batch=%d: no matches — test exercises nothing", label, batch)
				}
				if ps := e.PoolStats(); ps.News >= ps.Gets {
					t.Fatalf("%s batch=%d: no reuse (stats %+v)", label, batch, ps)
				}
				assertNoLeak(t, e, label)
			}
		}
	}
}

// TestPoolCloseWithoutFlush covers the abandoning path: Close on a live
// engine reclaims stored levels and pendings it never emitted, and a
// second Close does not double-recycle.
func TestPoolCloseWithoutFlush(t *testing.T) {
	p := pattern.Seq(6, pattern.E("A", "a"), pattern.E("B", "b"), pattern.Not("C", "nc"))
	e, err := New(compile(t, p, predicate.SkipTillAnyMatch), []int{0, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range randEvents(7, 1000) {
		e.Process(ev)
	}
	if e.CurrentPartial() == 0 {
		t.Fatal("no live state at Close — test exercises nothing")
	}
	assertNoLeak(t, e, "close-without-flush")
	e.Close()
	if live := e.PoolStats().Live(); live != 0 {
		t.Fatalf("double Close changed accounting: Live = %d", live)
	}
}

// TestRetainedMatchesIntact keeps every returned match across hundreds of
// batches and checks at the end that each still has the key it had when
// it was returned: no arena chunk and no pooled table is reused under a
// delivered match.
func TestRetainedMatchesIntact(t *testing.T) {
	for _, sh := range poolShapes {
		c := compile(t, sh.p, predicate.SkipTillAnyMatch)
		e, err := New(c, sh.order, Config{MaxKleeneBase: 6})
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
	e, err := New(compile(t, p, predicate.SkipTillAnyMatch), []int{3, 0, 1}, Config{})
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
	for range runs { // warm up free list, buffers and level stores
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
