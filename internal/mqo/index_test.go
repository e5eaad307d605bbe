package mqo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tree"
)

// checkIndexes asserts the join-index invariant on every node: each index
// holds exactly the buffered instances whose key is defined, each once, in
// the bucket of its key, in buffer order — and no bucket is empty.
func checkIndexes(t testing.TB, e *Engine) {
	t.Helper()
	for ni, n := range e.nodes {
		for _, ix := range n.indexes {
			want := map[uint64][]*inst{}
			for _, in := range n.buffer {
				if k, ok := ix.key.of(in); ok {
					want[k] = append(want[k], in)
				}
			}
			if len(ix.buckets) != len(want) {
				t.Fatalf("node %d index on slot %d.%s: %d buckets, buffer has %d keys",
					ni, ix.key.slot, ix.key.attr, len(ix.buckets), len(want))
			}
			for k, b := range ix.buckets {
				w := want[k]
				if len(b) != len(w) {
					t.Fatalf("node %d index on slot %d.%s: bucket %x holds %d, buffer %d",
						ni, ix.key.slot, ix.key.attr, k, len(b), len(w))
				}
				for i := range b {
					if b[i] != w[i] {
						t.Fatalf("node %d index on slot %d.%s: bucket %x diverges from the buffer at %d",
							ni, ix.key.slot, ix.key.attr, k, i)
					}
				}
			}
		}
	}
}

// indexEntries counts the instances reachable from the engine's indexes.
func indexEntries(e *Engine) int {
	total := 0
	for _, n := range e.nodes {
		for _, ix := range n.indexes {
			for _, b := range ix.buckets {
				total += len(b)
			}
		}
	}
	return total
}

func keyedEngine(t *testing.T, queries ...*pattern.Pattern) *Engine {
	t.Helper()
	st := stats.New()
	var qs []*qstate
	for i, p := range queries {
		qs = append(qs, newQState(Query{Name: fmt.Sprintf("q%d", i), SP: planSimple(t, p, st, core.AlgZStream)}))
	}
	eng, err := buildEngine(qs)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func leafOf(t *testing.T, e *Engine, typ string) *node {
	t.Helper()
	for _, n := range e.nodes {
		if n.leafType == typ {
			return n
		}
	}
	t.Fatalf("no %s leaf", typ)
	return nil
}

// feed processes events with consecutive seqs, checking the index invariant
// after every event, and returns the matches per query.
func feed(t *testing.T, e *Engine, events []*event.Event) map[string][]*match.Match {
	t.Helper()
	got := map[string][]*match.Match{}
	for i, ev := range events {
		for _, tm := range e.Process(ev, uint64(i+1)) {
			got[tm.Query] = append(got[tm.Query], tm.M)
		}
		checkIndexes(t, e)
	}
	return got
}

func eqAB(window event.Time) *pattern.Pattern {
	return pattern.Seq(window, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Eq, "b", "x"))
}

// TestIndexSignedZeroKeysPair: -0.0 and +0.0 are equal under Eq, so they
// must land in one bucket and pair.
func TestIndexSignedZeroKeysPair(t *testing.T) {
	sa, sb := event.NewSchema("A", "x"), event.NewSchema("B", "x")
	eng := keyedEngine(t, eqAB(10))
	got := feed(t, eng, []*event.Event{
		event.New(sa, 1, math.Copysign(0, -1)),
		event.New(sb, 2, 0),
	})
	if n := len(got["q0"]); n != 1 {
		t.Fatalf("-0.0 ⋈ +0.0: %d matches, want 1", n)
	}
	if p := eng.Stats().Probes; p != 1 {
		t.Fatalf("probes = %d, want 1", p)
	}
}

// TestIndexNaNAndMissingKeysNeverPair: an instance whose key is NaN or
// absent can satisfy no equality, so it is neither indexed nor probed — and
// a type whose events change schema mid-stream re-resolves the key.
func TestIndexNaNAndMissingKeysNeverPair(t *testing.T) {
	sa, sb := event.NewSchema("A", "x"), event.NewSchema("B", "x")
	noX := event.NewSchema("A", "y")
	eng := keyedEngine(t, eqAB(10))
	got := feed(t, eng, []*event.Event{
		event.New(sa, 1, math.NaN()),
		event.New(sb, 2, math.NaN()), // NaN probe: nothing to look up
		event.New(noX, 3, 1),         // missing x: not indexed
		event.New(sb, 4, 1),          // probes an empty bucket
	})
	if n := len(got["q0"]); n != 0 {
		t.Fatalf("NaN/missing keys paired: %d matches", n)
	}
	if p := eng.Stats().Probes; p != 0 {
		t.Fatalf("probes = %d, want 0", p)
	}
	if n := indexEntries(eng); n != 1 {
		t.Fatalf("%d index entries, want 1 (the keyed B)", n)
	}
	got = feed(t, eng, []*event.Event{event.New(sa, 5, 1)}) // back to the x schema
	if n := len(got["q0"]); n != 0 {
		t.Fatalf("A after B paired under SEQ: %d matches", n)
	}
	if p := eng.Stats().Probes; p != 1 {
		t.Fatalf("probes = %d, want 1 (the keyed B)", p)
	}
}

// TestIndexHeaderAttributeKeys: an equality on an event-header
// pseudo-attribute keys the index by the header field, as Event.Attr
// resolves it ahead of the schema.
func TestIndexHeaderAttributeKeys(t *testing.T) {
	sa, sb := event.NewSchema("A", "x"), event.NewSchema("B", "x")
	p := pattern.And(10, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "ts", pattern.Eq, "b", "ts"))
	eng := keyedEngine(t, p)
	got := feed(t, eng, []*event.Event{event.New(sa, 1, 0), event.New(sb, 1, 1), event.New(sb, 2, 0)})
	if n := len(got["q0"]); n != 1 {
		t.Fatalf("a.ts = b.ts: %d matches, want 1", n)
	}
	if p := eng.Stats().Probes; p != 1 {
		t.Fatalf("probes = %d, want 1", p)
	}
}

// TestIndexSelfJoinSharedLeaf: SEQ(A a1, A a2) WHERE a1.x = a2.x collapses
// both sides onto one leaf, which carries one index both sides probe; the
// snapshot includes the arriving instance itself, which event-disjointness
// rejects, exactly as the buffer scan did.
func TestIndexSelfJoinSharedLeaf(t *testing.T) {
	p := pattern.Seq(25, pattern.E("A", "a1"), pattern.E("A", "a2")).
		Where(pattern.AttrCmp("a1", "x", pattern.Eq, "a2", "x"))
	sp := planSimple(t, p, stats.New(), core.AlgZStream)
	eng, err := buildEngine([]*qstate{newQState(Query{Name: "self", SP: sp})})
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafOf(t, eng, "A")
	if len(eng.nodes) != 2 || len(leaf.indexes) != 1 {
		t.Fatalf("%d nodes, %d leaf indexes; want 2 nodes, 1 index", len(eng.nodes), len(leaf.indexes))
	}
	root := leaf.parents[0].parent
	if root.probe[0] != leaf.indexes[0] || root.probe[1] != leaf.indexes[0] {
		t.Fatal("self-join sides do not probe the leaf's one index")
	}
	events := enginetest.Stream(rand.New(rand.NewSource(3)), 300, []string{"A"}, 2)
	got := feed(t, eng, events)["self"]
	enginetest.Reset(events)
	want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	if onlyG, onlyW := match.Diff(got, want); len(onlyG) > 0 || len(onlyW) > 0 {
		t.Fatalf("indexed self-join diverges: extra %v missing %v", onlyG, onlyW)
	}
}

// TestIndexTwoParentsTwoAttributes: a shared leaf probed by one parent on x
// and another on y carries two indexes, each consistent with the buffer.
func TestIndexTwoParentsTwoAttributes(t *testing.T) {
	schemas := map[string]*event.Schema{}
	for _, typ := range []string{"A", "B", "C"} {
		schemas[typ] = event.NewSchema(typ, "x", "y")
	}
	pb := eqAB(12)
	pc := pattern.Seq(12, pattern.E("A", "a"), pattern.E("C", "c")).
		Where(pattern.AttrCmp("a", "y", pattern.Eq, "c", "y"))
	st := stats.New()
	spb, spc := planSimple(t, pb, st, core.AlgZStream), planSimple(t, pc, st, core.AlgZStream)
	eng, err := buildEngine([]*qstate{
		newQState(Query{Name: "ab", SP: spb}),
		newQState(Query{Name: "ac", SP: spc}),
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafOf(t, eng, "A")
	if len(leaf.indexes) != 2 || leaf.indexes[0].key.attr == leaf.indexes[1].key.attr {
		t.Fatalf("shared A leaf carries %d indexes, want one on x and one on y", len(leaf.indexes))
	}

	rng := rand.New(rand.NewSource(17))
	var events []*event.Event
	for ts := event.Time(1); ts <= 400; ts++ {
		s := schemas[[]string{"A", "B", "C"}[rng.Intn(3)]]
		events = append(events, event.New(s, ts, float64(rng.Intn(5)), float64(rng.Intn(5))))
	}
	events = event.Drain(event.NewSliceStream(events))
	got := feed(t, eng, events)
	for name, sp := range map[string]*core.SimplePlan{"ab": spb, "ac": spc} {
		enginetest.Reset(events)
		want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: vacuous workload", name)
		}
		if onlyG, onlyW := match.Diff(got[name], want); len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("%s diverges: extra %v missing %v", name, onlyG, onlyW)
		}
	}
}

// TestIndexExpiresHighCardinalityKeys streams a distinct key per event: the
// index must not accumulate dead buckets, and once the window has passed no
// bucket remains.
func TestIndexExpiresHighCardinalityKeys(t *testing.T) {
	const window = 10
	sa, sb, sc := event.NewSchema("A", "x"), event.NewSchema("B", "x"), event.NewSchema("C", "x")
	eng := keyedEngine(t, eqAB(window))
	var events []*event.Event
	for i := 0; i < 2000; i++ {
		s := sa
		if i%2 == 1 {
			s = sb
		}
		events = append(events, event.New(s, event.Time(i+1), float64(i)))
	}
	for i := 0; i < 2*compactEvery; i++ { // no leaf consumes C: only the clock moves
		events = append(events, event.New(sc, event.Time(3000+i), 0))
	}
	for i, ev := range events {
		eng.Process(ev, uint64(i+1))
		if eng.st.Processed%compactEvery == 0 {
			checkIndexes(t, eng)
			for _, n := range eng.nodes {
				for _, ix := range n.indexes {
					if len(ix.buckets) > compactEvery+window {
						t.Fatalf("after %d events: %d live buckets", i+1, len(ix.buckets))
					}
				}
			}
		}
	}
	if n := indexEntries(eng); n != 0 {
		t.Fatalf("%d index entries outlive the window", n)
	}
	for _, n := range eng.nodes {
		for _, ix := range n.indexes {
			if len(ix.buckets) != 0 {
				t.Fatalf("%d empty buckets kept", len(ix.buckets))
			}
		}
	}
}

// TestIndexBackfill splices a keyed query onto a successor planned as a
// different tree: the successor's new sub-join has no predecessor buffer and
// is backfilled by probing its right child's index. The query must see its
// full-stream match set across the splice.
func TestIndexBackfill(t *testing.T) {
	p := pattern.Seq(25, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")).
		Where(pattern.AttrCmp("a", "x", pattern.Eq, "b", "x"),
			pattern.AttrCmp("b", "x", pattern.Eq, "c", "x"))
	sp := planSimple(t, p, stats.New(), core.AlgZStream)
	leftDeep, rightDeep := *sp, *sp
	leftDeep.Tree = plan.Join(plan.Join(plan.LeafNode(0), plan.LeafNode(1)), plan.LeafNode(2))
	rightDeep.Tree = plan.Join(plan.LeafNode(0), plan.Join(plan.LeafNode(1), plan.LeafNode(2)))

	events := enginetest.Stream(rand.New(rand.NewSource(29)), 400, []string{"A", "B", "C"}, 2)
	half := len(events) / 2
	old, err := buildEngine([]*qstate{newQState(Query{Name: "q", SP: &leftDeep})})
	if err != nil {
		t.Fatal(err)
	}
	got := feed(t, old, events[:half])["q"]
	succ, err := buildEngine([]*qstate{newQState(Query{Name: "q", SP: &rightDeep})})
	if err != nil {
		t.Fatal(err)
	}
	succ.AdoptFrom([]*Engine{old}, uint64(half+1))
	checkIndexes(t, succ)
	st := succ.Stats()
	if st.Backfilled == 0 {
		t.Fatal("nothing backfilled — the splice exercises no backfill")
	}
	var left, right int
	for _, n := range succ.nodes {
		if !n.isLeaf() && len(n.parents) > 0 {
			left, right = len(n.left.buffer), len(n.right.buffer)
		}
	}
	if st.Probes >= int64(left*right) {
		t.Fatalf("backfill made %d probes, a full cross product is %d", st.Probes, left*right)
	}
	old.Close()
	for i, ev := range events[half:] {
		for _, tm := range succ.Process(ev, uint64(half+1+i)) {
			got = append(got, tm.M)
		}
		checkIndexes(t, succ)
	}
	enginetest.Reset(events)
	want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	if onlyG, onlyW := match.Diff(got, want); len(onlyG) > 0 || len(onlyW) > 0 {
		t.Fatalf("across the backfill splice: %d extra, %d missing (of %d)", len(onlyG), len(onlyW), len(want))
	}
}
