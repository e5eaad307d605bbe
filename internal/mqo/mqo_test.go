package mqo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/enginetest"
	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/tree"
)

func planSimple(t testing.TB, p *pattern.Pattern, st *stats.Stats, alg string) *core.SimplePlan {
	t.Helper()
	pl := &core.Planner{Algorithm: alg, Strategy: predicate.SkipTillAnyMatch}
	sp, err := pl.PlanSimple(p, st)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func seqAB(window event.Time, aliasA, aliasB string) *pattern.Pattern {
	return pattern.Seq(window,
		pattern.E("A", aliasA), pattern.E("B", aliasB),
	).Where(pattern.AttrCmp(aliasA, "x", pattern.Lt, aliasB, "x"))
}

// TestCanonicalKeysAliasFree checks that canonical subtree keys ignore
// query-local aliases but distinguish windows and predicate sets.
func TestCanonicalKeysAliasFree(t *testing.T) {
	st := stats.New()
	sp1 := planSimple(t, seqAB(20, "x1", "y1"), st, core.AlgZStream)
	sp2 := planSimple(t, seqAB(20, "p", "q"), st, core.AlgZStream)
	k1, _ := subsetKey(newSigCache(sp1.Compiled, sp1.Stats.TermIndex), []int{0, 1})
	k2, _ := subsetKey(newSigCache(sp2.Compiled, sp2.Stats.TermIndex), []int{0, 1})
	if k1 != k2 {
		t.Fatalf("alias renaming changed the canonical key:\n%s\n%s", k1, k2)
	}
	// Different window: different key.
	sp3 := planSimple(t, seqAB(30, "x1", "y1"), st, core.AlgZStream)
	k3, _ := subsetKey(newSigCache(sp3.Compiled, sp3.Stats.TermIndex), []int{0, 1})
	if k1 == k3 {
		t.Fatal("window is not part of the canonical key")
	}
	// Extra predicate: different key.
	p4 := pattern.Seq(20, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"),
			pattern.AttrCmp("a", "y", pattern.Eq, "b", "y"))
	sp4 := planSimple(t, p4, st, core.AlgZStream)
	k4, _ := subsetKey(newSigCache(sp4.Compiled, sp4.Stats.TermIndex), []int{0, 1})
	if k1 == k4 {
		t.Fatal("predicate set is not part of the canonical key")
	}
	// AND (no temporal order) vs SEQ: different key.
	p5 := pattern.And(20, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))
	sp5 := planSimple(t, p5, st, core.AlgZStream)
	k5, _ := subsetKey(newSigCache(sp5.Compiled, sp5.Stats.TermIndex), []int{0, 1})
	if k1 == k5 {
		t.Fatal("sequence order is not part of the canonical key")
	}
}

// TestEligible checks the shareable-fragment conditions.
func TestEligible(t *testing.T) {
	st := stats.New()
	pl := &core.Planner{Algorithm: core.AlgZStream, Strategy: predicate.SkipTillAnyMatch}
	ok, err := pl.Plan(seqAB(20, "a", "b"), st)
	if err != nil {
		t.Fatal(err)
	}
	if !Eligible(ok, predicate.SkipTillAnyMatch) {
		t.Fatal("plain SEQ rejected")
	}
	if Eligible(ok, predicate.SkipTillNextMatch) {
		t.Fatal("skip-till-next accepted (its match sets are plan-dependent)")
	}
	neg := pattern.Seq(20, pattern.E("A", "a"), pattern.Not("C", "n"), pattern.E("B", "b"))
	npl, err := pl.Plan(neg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !Eligible(npl, predicate.SkipTillAnyMatch) {
		t.Fatal("negation rejected — the positive core is shareable")
	}
	kl := pattern.Seq(20, pattern.E("A", "a"), pattern.KL("B", "b"))
	kpl, err := pl.Plan(kl, st)
	if err != nil {
		t.Fatal(err)
	}
	if Eligible(kpl, predicate.SkipTillAnyMatch) {
		t.Fatal("Kleene accepted")
	}
}

// TestEngineMatchesTreeEngine drives the shared DAG engine with a single
// query and compares its match set against the private tree engine on the
// same plan, over random eligible patterns — the DAG machinery must be a
// faithful generalization of the tree engine. Equality draws index join
// edges; the index invariant is checked after every event.
func TestEngineMatchesTreeEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	st := stats.New()
	for trial := 0; trial < 40; trial++ {
		p := enginetest.RandomPattern(rng, 30, false, false)
		sp := planSimple(t, p, st, core.AlgZStream)
		events := enginetest.Stream(rng, 150, enginetest.TypeNames, 3)

		want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		enginetest.Reset(events)

		eng, err := buildEngine([]*qstate{newQState(Query{Name: "q", SP: sp})})
		if err != nil {
			t.Fatal(err)
		}
		var got []*match.Match
		for i, ev := range events {
			for _, tm := range eng.Process(ev, uint64(i+1)) {
				if tm.Query != "q" {
					t.Fatalf("unexpected tag %q", tm.Query)
				}
				got = append(got, tm.M)
			}
			checkIndexes(t, eng)
		}
		onlyG, onlyW := match.Diff(got, want)
		if len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("trial %d (%s): DAG engine diverges from tree engine\nextra: %v\nmissing: %v",
				trial, p, onlyG, onlyW)
		}
		enginetest.Reset(events)
	}
}

// TestOptimizeSharesIdenticalQueries registers the same pattern under two
// names: the optimizer must produce one group whose DAG emits every match
// once per query, sharing all nodes.
func TestOptimizeSharesIdenticalQueries(t *testing.T) {
	st := stats.New()
	sp1 := planSimple(t, seqAB(20, "a", "b"), st, core.AlgZStream)
	sp2 := planSimple(t, seqAB(20, "u", "v"), st, core.AlgZStream)
	res, err := Optimize([]Query{{Name: "q1", SP: sp1}, {Name: "q2", SP: sp2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Private) != 0 {
		t.Fatalf("groups=%d private=%v, want one group, none private", len(res.Groups), res.Private)
	}
	g := res.Groups[0]
	if len(g.Members) != 2 {
		t.Fatalf("members=%v", g.Members)
	}
	// Identical queries collapse to one root: 2 leaves + 1 join.
	if g.Engine.st.Nodes != 3 {
		t.Fatalf("DAG has %d nodes, want 3 (fully shared)", g.Engine.st.Nodes)
	}
	rng := rand.New(rand.NewSource(7))
	events := enginetest.Stream(rng, 80, []string{"A", "B"}, 2)
	perQuery := map[string]int{}
	for i, ev := range events {
		for _, tm := range g.Engine.Process(ev, uint64(i+1)) {
			perQuery[tm.Query]++
		}
	}
	if perQuery["q1"] == 0 || perQuery["q1"] != perQuery["q2"] {
		t.Fatalf("per-query counts %v, want equal and non-zero", perQuery)
	}
	if res.Report.SharedCost >= res.Report.UnsharedCost {
		t.Fatalf("shared objective %.2f not below unshared %.2f",
			res.Report.SharedCost, res.Report.UnsharedCost)
	}
	// Trees snapshots the evaluated structure per member: one tree per
	// member, spanning the query's two planning positions.
	for _, name := range g.Members {
		tr := g.Trees[name]
		if tr == nil {
			t.Fatalf("no final tree for member %s", name)
		}
		if got := len(tr.Leaves()); got != 2 {
			t.Fatalf("tree for %s spans %d leaves, want 2", name, got)
		}
	}
}

// TestOptimizeLeavesDisjointQueriesPrivate checks the selector's win test:
// queries with nothing in common stay on their private engines.
func TestOptimizeLeavesDisjointQueriesPrivate(t *testing.T) {
	st := stats.New()
	p1 := pattern.Seq(20, pattern.E("A", "a"), pattern.E("B", "b"))
	p2 := pattern.Seq(20, pattern.E("C", "c"), pattern.E("D", "d"))
	res, err := Optimize([]Query{
		{Name: "q1", SP: planSimple(t, p1, st, core.AlgZStream)},
		{Name: "q2", SP: planSimple(t, p2, st, core.AlgZStream)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 || len(res.Private) != 2 {
		t.Fatalf("groups=%d private=%v, want no groups, both private", len(res.Groups), res.Private)
	}
}

// TestOptimizeRestructuresForSharing builds queries whose private-optimal
// trees avoid the common sub-join (the rare tail event joins first), and
// checks that the selector bends them toward the shared prefix when the
// model predicts a win — and that the shared evaluation stays match-exact
// against private tree engines.
func TestOptimizeRestructuresForSharing(t *testing.T) {
	st := stats.New()
	st.SetRate("A", 8)
	st.SetRate("B", 8)
	// A selective measured predicate keeps the common (A⋈B) prefix only
	// slightly more expensive than each private (B⋈tail) join — so the
	// private-optimal plans avoid it, yet computing it once for both
	// queries beats computing two private joins:
	// PM(AB)·(1+φ) = 160·1.25 = 200  <  2·PM(Btail) = 2·133.
	st.SetSelectivity(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"), 0.05)
	tails := []string{"C", "D"}
	for _, tail := range tails {
		st.SetRate(tail, 0.33)
	}
	var queries []Query
	var sps []*core.SimplePlan
	for i, tail := range tails {
		p := pattern.Seq(10*event.Second,
			pattern.E("A", "a"), pattern.E("B", "b"), pattern.E(tail, "t"),
		).Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))
		sp := planSimple(t, p, st, core.AlgZStream)
		sps = append(sps, sp)
		queries = append(queries, Query{Name: fmt.Sprintf("q%d", i), SP: sp})
	}
	// Sanity: the private-optimal ZStream tree joins the rare tail early,
	// so the (A⋈B) prefix is not a subtree of the private plan.
	if got := findSubtree(sps[0].Tree, []int{0, 1}); got != nil {
		t.Skip("workload no longer makes the private plan avoid the shared prefix")
	}
	res, err := Optimize(queries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("expected one shared group, got %d (private=%v)", len(res.Groups), res.Private)
	}
	if res.Report.Restructured == 0 {
		t.Fatal("selector shared without restructuring — test premise broken")
	}

	// Equivalence: shared DAG vs the private tree engines.
	rng := rand.New(rand.NewSource(99))
	events := enginetest.Stream(rng, 400, []string{"A", "B", "C", "D"}, 2)
	got := map[string][]*match.Match{}
	for i, ev := range events {
		for _, tm := range res.Groups[0].Engine.Process(ev, uint64(i+1)) {
			got[tm.Query] = append(got[tm.Query], tm.M)
		}
	}
	for i := range queries {
		enginetest.Reset(events)
		want, _, err := enginetest.RunTree(sps[i].Compiled, sps[i].TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		name := queries[i].Name
		onlyG, onlyW := match.Diff(got[name], want)
		if len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("query %s: restructured shared plan diverges: extra %v missing %v",
				name, onlyG, onlyW)
		}
	}
}

// TestSelfJoinSharing exercises the self-join corner: a query repeating an
// event type collapses both leaves onto one DAG node fed to both sides of
// its join.
func TestSelfJoinSharing(t *testing.T) {
	st := stats.New()
	p := pattern.Seq(25, pattern.E("A", "a1"), pattern.E("A", "a2"))
	sp := planSimple(t, p, st, core.AlgZStream)
	eng, err := buildEngine([]*qstate{newQState(Query{Name: "self", SP: sp})})
	if err != nil {
		t.Fatal(err)
	}
	if eng.st.Nodes != 2 {
		t.Fatalf("self-join DAG has %d nodes, want 2 (one shared leaf + root)", eng.st.Nodes)
	}
	rng := rand.New(rand.NewSource(3))
	events := enginetest.Stream(rng, 50, []string{"A"}, 2)
	var got []*match.Match
	for i, ev := range events {
		for _, tm := range eng.Process(ev, uint64(i+1)) {
			got = append(got, tm.M)
		}
	}
	enginetest.Reset(events)
	want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	onlyG, onlyW := match.Diff(got, want)
	if len(onlyG) > 0 || len(onlyW) > 0 {
		t.Fatalf("self-join diverges: extra %v missing %v", onlyG, onlyW)
	}
}

// TestContractReproducesSubjoinPM checks the statistics-side contraction:
// the virtual leaf's PM equals the sub-join's node PM, so residual plans
// are costed as if fed by the materialized buffer.
func TestContractReproducesSubjoinPM(t *testing.T) {
	st := stats.New()
	st.SetRate("A", 4)
	st.SetRate("B", 6)
	st.SetRate("C", 1)
	p := pattern.Seq(10*event.Second,
		pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c"),
	).Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))
	ps := stats.For(p, st)
	sub := []int{0, 1}
	wantPM := cost.TreePM(ps, plan.Join(plan.LeafNode(0), plan.LeafNode(1)))
	cp, keep := stats.Contract(ps, sub)
	v := len(keep)
	gotPM := cp.W * cp.Rates[v] * cp.Sel[v][v]
	if diff := gotPM - wantPM; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("virtual leaf PM %.6f, want sub-join PM %.6f", gotPM, wantPM)
	}
	// Residual cost identity: Cost_tree of the contracted plan (virtual ⋈ C)
	// minus the virtual leaf equals the full plan ((A⋈B) ⋈ C) minus the
	// whole sub-join subtree — the shared, already-paid part.
	full := plan.Join(plan.Join(plan.LeafNode(0), plan.LeafNode(1)), plan.LeafNode(2))
	contracted := plan.Join(plan.LeafNode(v), plan.LeafNode(0)) // keep[0] == 2 (C)
	wantResidual := cost.Tree(ps, full) - cost.Tree(ps, plan.Join(plan.LeafNode(0), plan.LeafNode(1)))
	gotResidual := cost.Tree(cp, contracted) - gotPM // subtract the virtual leaf itself
	if diff := gotResidual - wantResidual; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("residual cost %.6f, want %.6f", gotResidual, wantResidual)
	}
}

// TestSharedTreeCost checks the share-aware tree pricing a session's drift
// check runs on: a single tree prices exactly like cost.Tree, two
// identical trees dedupe onto one set of nodes (strictly cheaper than
// twice the private cost), and disjoint trees do not share.
func TestSharedTreeCost(t *testing.T) {
	st := stats.New()
	st.SetRate("A", 5)
	st.SetRate("B", 3)
	mk := func(p *pattern.Pattern) TreePrice {
		sp := planSimple(t, p, st, core.AlgZStream)
		return TreePrice{Sigs: NewSigs(sp.Compiled, sp.Stats.TermIndex), PS: sp.Stats, Tree: sp.Tree}
	}
	one := mk(seqAB(20, "a", "b"))
	private := cost.Tree(one.PS, one.Tree)
	if got := SharedTreeCost([]TreePrice{one}, 0); got != private {
		t.Fatalf("single tree: SharedTreeCost %.4f != cost.Tree %.4f", got, private)
	}
	// Two alias-renamed copies of the same query: every node shared, so the
	// cost is private·(1+φ) — strictly below 2·private.
	two := SharedTreeCost([]TreePrice{one, mk(seqAB(20, "u", "v"))}, 0.25)
	if want := private * 1.25; two < want-1e-9 || two > want+1e-9 {
		t.Fatalf("identical trees: SharedTreeCost %.4f, want %.4f", two, want)
	}
	// Disjoint queries share nothing: the costs just add.
	p2 := pattern.Seq(20, pattern.E("C", "c"), pattern.E("D", "d"))
	other := mk(p2)
	sum := SharedTreeCost([]TreePrice{one, other}, 0.25)
	if want := private + cost.Tree(other.PS, other.Tree); sum < want-1e-9 || sum > want+1e-9 {
		t.Fatalf("disjoint trees: SharedTreeCost %.4f, want %.4f", sum, want)
	}
}

// TestSharedObjective pins the cost.Shared arithmetic.
func TestSharedObjective(t *testing.T) {
	nodes := []cost.SharedNode{{PM: 10, Consumers: 1}, {PM: 4, Consumers: 3}}
	got := cost.Shared(nodes, 0.25)
	want := 10 + 4*(1+0.25*2)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Shared = %.4f, want %.4f", got, want)
	}
	if cost.Shared(nodes, 0) != 14 {
		t.Fatal("zero fanout must price pure sharing")
	}
}

// TestEngineMatchesTreeEngineNegation repeats the faithfulness property over
// random patterns WITH negation: the shared DAG computes the positive core
// and applies the root negation checks, and must still coincide with the
// private tree engine match-for-match (including flushed pendings).
func TestEngineMatchesTreeEngineNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	st := stats.New()
	for trial := 0; trial < 40; trial++ {
		p := enginetest.RandomPattern(rng, 30, true, false)
		sp := planSimple(t, p, st, core.AlgZStream)
		events := enginetest.Stream(rng, 150, enginetest.TypeNames, 3)

		want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		enginetest.Reset(events)

		eng, err := buildEngine([]*qstate{newQState(Query{Name: "q", SP: sp})})
		if err != nil {
			t.Fatal(err)
		}
		var got []*match.Match
		for i, ev := range events {
			for _, tm := range eng.Process(ev, uint64(i+1)) {
				got = append(got, tm.M)
			}
			checkIndexes(t, eng)
		}
		for _, tm := range eng.Flush() {
			got = append(got, tm.M)
		}
		onlyG, onlyW := match.Diff(got, want)
		if len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("trial %d (%s): negation DAG diverges from tree engine\nextra: %v\nmissing: %v",
				trial, p, onlyG, onlyW)
		}
		enginetest.Reset(events)
	}
}

// TestNegationSharesPositiveCore groups a plain query with a negation query
// over the same positive sub-join: the DAG must share the core (fewer nodes
// than the sum of both trees) while keeping both match sets private-exact.
func TestNegationSharesPositiveCore(t *testing.T) {
	st := stats.New()
	plain := pattern.Seq(20, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))
	negated := pattern.Seq(20, pattern.E("A", "p"), pattern.Not("C", "n"), pattern.E("B", "q")).
		Where(pattern.AttrCmp("p", "x", pattern.Lt, "q", "x"))
	spPlain := planSimple(t, plain, st, core.AlgZStream)
	spNeg := planSimple(t, negated, st, core.AlgZStream)
	res, err := Optimize([]Query{{Name: "plain", SP: spPlain}, {Name: "neg", SP: spNeg}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("want one shared group, got %d (private=%v)", len(res.Groups), res.Private)
	}
	eng := res.Groups[0].Engine
	// Identical positive cores collapse: 2 leaves + 1 join, consumed by both.
	if eng.st.Nodes != 3 {
		t.Fatalf("DAG has %d nodes, want 3 (core fully shared)", eng.st.Nodes)
	}
	rng := rand.New(rand.NewSource(5))
	events := enginetest.Stream(rng, 300, []string{"A", "B", "C"}, 2)
	got := map[string][]*match.Match{}
	for i, ev := range events {
		for _, tm := range eng.Process(ev, uint64(i+1)) {
			got[tm.Query] = append(got[tm.Query], tm.M)
		}
	}
	for _, tm := range eng.Flush() {
		got[tm.Query] = append(got[tm.Query], tm.M)
	}
	for name, sp := range map[string]*core.SimplePlan{"plain": spPlain, "neg": spNeg} {
		enginetest.Reset(events)
		want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		onlyG, onlyW := match.Diff(got[name], want)
		if len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("query %s diverges: extra %v missing %v", name, onlyG, onlyW)
		}
		enginetest.Reset(events)
	}
	if len(got["neg"]) == 0 || len(got["plain"]) == 0 {
		t.Fatal("vacuous: a query produced no matches")
	}
	if len(got["neg"]) >= len(got["plain"]) {
		t.Fatal("vacuous: negation filtered nothing")
	}
}

// TestAdoptFromSplicesWithoutLoss simulates the live-registration splice: a
// singleton engine processes the first half of a stream, then a second
// query arrives, the pair is re-optimized, the successor engine adopts the
// old state, and the second half flows through it. The old query must see
// exactly its full-stream matches (nothing dropped or duplicated across the
// splice); the new query exactly its suffix matches. The keyed pair joins
// on x-equality chains, so the adopted buffers are re-indexed (backfill
// through the index is TestIndexBackfill).
func TestAdoptFromSplicesWithoutLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   pattern.CmpOp
	}{{"unkeyed", pattern.Lt}, {"keyed", pattern.Eq}} {
		t.Run(tc.name, func(t *testing.T) {
			st := stats.New()
			p1 := pattern.Seq(25, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c")).
				Where(pattern.AttrCmp("a", "x", tc.op, "b", "x"))
			p2 := pattern.Seq(25, pattern.E("A", "u"), pattern.E("B", "v"), pattern.E("D", "w")).
				Where(pattern.AttrCmp("u", "x", tc.op, "v", "x"))
			if tc.op == pattern.Eq {
				p1.Where(pattern.AttrCmp("b", "x", pattern.Eq, "c", "x"))
				p2.Where(pattern.AttrCmp("v", "x", pattern.Eq, "w", "x"))
			}
			checkSpliceWithoutLoss(t, planSimple(t, p1, st, core.AlgZStream), planSimple(t, p2, st, core.AlgZStream))
		})
	}
}

func checkSpliceWithoutLoss(t *testing.T, sp1, sp2 *core.SimplePlan) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	events := enginetest.Stream(rng, 400, enginetest.TypeNames, 2)
	half := len(events) / 2

	g1, err := Single(Query{Name: "q1", SP: sp1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]*match.Match{}
	collect := func(tms []Tagged) {
		for _, tm := range tms {
			got[tm.Query] = append(got[tm.Query], tm.M)
		}
	}
	for i, ev := range events[:half] {
		collect(g1.Engine.Process(ev, uint64(i+1)))
	}

	spliceSeq := uint64(half + 1)
	res, err := Optimize([]Query{
		{Name: "q1", SP: sp1},
		{Name: "q2", SP: sp2, Since: spliceSeq},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var engines []*Engine
	for _, g := range res.Groups {
		g.Engine.AdoptFrom([]*Engine{g1.Engine}, spliceSeq)
		engines = append(engines, g.Engine)
	}
	for _, name := range res.Private {
		q := Query{Name: name, SP: sp1}
		if name == "q2" {
			q = Query{Name: name, SP: sp2, Since: spliceSeq}
		}
		g, err := Single(q)
		if err != nil {
			t.Fatal(err)
		}
		g.Engine.AdoptFrom([]*Engine{g1.Engine}, spliceSeq)
		engines = append(engines, g.Engine)
	}
	for _, eng := range engines {
		checkIndexes(t, eng)
	}
	for i, ev := range events[half:] {
		for _, eng := range engines {
			collect(eng.Process(ev, spliceSeq+uint64(i)))
		}
	}
	for _, eng := range engines {
		collect(eng.Flush())
	}

	enginetest.Reset(events)
	want1, _, err := enginetest.RunTree(sp1.Compiled, sp1.TreeTerms(), events, tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	enginetest.Reset(events)
	want2, _, err := enginetest.RunTree(sp2.Compiled, sp2.TreeTerms(), events[half:], tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want1) == 0 || len(want2) == 0 {
		t.Fatal("vacuous workload")
	}
	if onlyG, onlyW := match.Diff(got["q1"], want1); len(onlyG) > 0 || len(onlyW) > 0 {
		t.Fatalf("q1 across splice: %d extra, %d missing (of %d)", len(onlyG), len(onlyW), len(want1))
	}
	if onlyG, onlyW := match.Diff(got["q2"], want2); len(onlyG) > 0 || len(onlyW) > 0 {
		t.Fatalf("q2 suffix: %d extra, %d missing (of %d)", len(onlyG), len(onlyW), len(want2))
	}
}

// TestQueryKeysOverlap checks the affected-component index: overlapping
// queries expose a common canonical key, disjoint ones do not.
func TestQueryKeysOverlap(t *testing.T) {
	st := stats.New()
	k1 := QueryKeys(Query{Name: "a", SP: planSimple(t, seqAB(20, "a", "b"), st, core.AlgZStream)}, Options{})
	k2 := QueryKeys(Query{Name: "b", SP: planSimple(t, seqAB(20, "p", "q"), st, core.AlgZStream)}, Options{})
	p3 := pattern.Seq(20, pattern.E("C", "c"), pattern.E("D", "d"))
	k3 := QueryKeys(Query{Name: "c", SP: planSimple(t, p3, st, core.AlgZStream)}, Options{})
	inter := func(x, y []string) bool {
		set := map[string]bool{}
		for _, k := range x {
			set[k] = true
		}
		for _, k := range y {
			if set[k] {
				return true
			}
		}
		return false
	}
	if !inter(k1, k2) {
		t.Fatal("identical queries expose no common key")
	}
	if inter(k1, k3) {
		t.Fatal("disjoint queries expose a common key")
	}
}

// TestGroupWorkersSplit checks the parallel-lane partition: a component of
// four members under GroupWorkers=2 splits into two lanes of the same
// component, members disjoint and complete, detection still exact.
func TestGroupWorkersSplit(t *testing.T) {
	st := stats.New()
	// Rare A and B, frequent C: every private-optimal tree joins (A⋈B)
	// first, so the four distinct queries form one connected component.
	st.SetRate("A", 1)
	st.SetRate("B", 1)
	st.SetRate("C", 10)
	var queries []Query
	sps := map[string]*core.SimplePlan{}
	tailPred := []pattern.CmpOp{pattern.Lt, pattern.Le, pattern.Ne, pattern.Gt}
	for i, op := range tailPred {
		p := pattern.Seq(20, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "t")).
			Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"),
				pattern.AttrCmp("b", "x", op, "t", "x"))
		name := fmt.Sprintf("q%d", i)
		sp := planSimple(t, p, st, core.AlgZStream)
		sps[name] = sp
		queries = append(queries, Query{Name: name, SP: sp})
	}
	res, err := Optimize(queries, Options{GroupWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("want 2 lanes, got %d (private=%v)", len(res.Groups), res.Private)
	}
	seen := map[string]bool{}
	for _, g := range res.Groups {
		if g.Component != res.Groups[0].Component {
			t.Fatalf("lanes of one component disagree on id: %d vs %d",
				g.Component, res.Groups[0].Component)
		}
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("member %s on two lanes", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("members lost in split: %v", seen)
	}
	rng := rand.New(rand.NewSource(13))
	events := enginetest.Stream(rng, 300, enginetest.TypeNames, 2)
	got := map[string][]*match.Match{}
	for i, ev := range events {
		for _, g := range res.Groups {
			for _, tm := range g.Engine.Process(ev, uint64(i+1)) {
				got[tm.Query] = append(got[tm.Query], tm.M)
			}
		}
	}
	for name, sp := range sps {
		enginetest.Reset(events)
		want, _, err := enginetest.RunTree(sp.Compiled, sp.TreeTerms(), events, tree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if onlyG, onlyW := match.Diff(got[name], want); len(onlyG) > 0 || len(onlyW) > 0 {
			t.Fatalf("split lane query %s diverges: extra %v missing %v", name, onlyG, onlyW)
		}
		enginetest.Reset(events)
	}
}
