// Package enginetest provides shared fixtures for the cross-engine
// correctness suite: random simple patterns, random streams, and runners
// that evaluate a compiled pattern with the NFA engine, the tree engine and
// the brute-force oracle. The actual tests live in this package's test
// files; they verify the paper's foundational premise that every evaluation
// plan — any order, any tree — detects exactly the same match set.
package enginetest

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/nfa"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/tree"
)

// Schemas used by the generated streams.
var Schemas = map[string]*event.Schema{
	"A": event.NewSchema("A", "x"),
	"B": event.NewSchema("B", "x"),
	"C": event.NewSchema("C", "x"),
	"D": event.NewSchema("D", "x"),
}

// TypeNames lists the generated event types.
var TypeNames = []string{"A", "B", "C", "D"}

// Stream generates n random events over the given types with timestamps
// advancing by 1..maxGap and attribute x drawn from 0..9, stamped with
// serial numbers.
func Stream(rng *rand.Rand, n int, types []string, maxGap int64) []*event.Event {
	events := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(1 + rng.Int63n(maxGap))
		typ := types[rng.Intn(len(types))]
		events = append(events, event.New(Schemas[typ], ts, float64(rng.Intn(10))))
	}
	stream := event.NewSliceStream(events)
	return event.Drain(stream)
}

// Reset clears consumption marks so that the same events can be replayed.
func Reset(events []*event.Event) {
	stream := event.NewSliceStream(events)
	stream.Reset()
}

// RunNFA evaluates the compiled pattern with the given order (term
// positions) over the events and returns all matches (including flushed
// pendings).
func RunNFA(c *predicate.Compiled, order []int, events []*event.Event, cfg nfa.Config) ([]*match.Match, *nfa.Engine, error) {
	e, err := nfa.New(c, order, cfg)
	if err != nil {
		return nil, nil, err
	}
	var out []*match.Match
	for _, ev := range events {
		out = append(out, copyMatches(e.Process(ev))...)
	}
	out = append(out, copyMatches(e.Flush())...)
	return out, e, nil
}

// RunTree evaluates the compiled pattern with the given plan tree (leaves
// are term positions) over the events.
func RunTree(c *predicate.Compiled, root *plan.TreeNode, events []*event.Event, cfg tree.Config) ([]*match.Match, *tree.Engine, error) {
	e, err := tree.New(c, root, cfg)
	if err != nil {
		return nil, nil, err
	}
	var out []*match.Match
	for _, ev := range events {
		out = append(out, copyMatches(e.Process(ev))...)
	}
	out = append(out, copyMatches(e.Flush())...)
	return out, e, nil
}

func copyMatches(ms []*match.Match) []*match.Match {
	out := make([]*match.Match, len(ms))
	copy(out, ms)
	return out
}

// PositiveOrders enumerates every processing order over the pattern's
// positive term positions.
func PositiveOrders(c *predicate.Compiled, fn func(order []int)) {
	n := len(c.Positives)
	plan.Permutations(n, func(perm []int) {
		order := make([]int, n)
		for i, p := range perm {
			order[i] = c.Positives[p]
		}
		fn(order)
	})
}

// PositiveTrees enumerates every plan tree over the pattern's positive term
// positions.
func PositiveTrees(c *predicate.Compiled, fn func(root *plan.TreeNode)) {
	n := len(c.Positives)
	plan.AllTrees(n, func(t *plan.TreeNode) {
		fn(mapLeaves(t, c.Positives))
	})
}

func mapLeaves(t *plan.TreeNode, positives []int) *plan.TreeNode {
	if t.IsLeaf() {
		return plan.LeafNode(positives[t.Leaf])
	}
	return plan.Join(mapLeaves(t.Left, positives), mapLeaves(t.Right, positives))
}

// DescribeDiff renders a match-set difference for test failures.
func DescribeDiff(label string, got, want []*match.Match) string {
	extra, missing := match.Diff(got, want)
	return fmt.Sprintf("%s: %d got vs %d want; extra=%v missing=%v",
		label, len(got), len(want), extra, missing)
}

// RandomKeyedPattern builds a random simple pattern over 2..4 positive
// events whose positions are chained together by equality predicates on x
// (`e0.x = e1.x AND e1.x = e2.x ...`) — the shape the session's
// key-partitioned shared evaluation derives its hash-partition attribute
// from. Optionally one negated event is inserted; an extra constant unary
// sometimes narrows one position so overlapping keyed queries still differ.
// No Kleene (keyed queries must stay sharing-eligible).
func RandomKeyedPattern(rng *rand.Rand, window event.Time, negation bool) *pattern.Pattern {
	n := 2 + rng.Intn(3)
	var terms []pattern.Term
	for i := 0; i < n; i++ {
		typ := TypeNames[rng.Intn(len(TypeNames))]
		terms = append(terms, pattern.E(typ, fmt.Sprintf("k%d", i)))
	}
	if negation {
		typ := TypeNames[rng.Intn(len(TypeNames))]
		neg := pattern.Not(typ, "neg")
		at := rng.Intn(len(terms) + 1)
		terms = append(terms[:at], append([]pattern.Term{neg}, terms[at:]...)...)
	}
	var p *pattern.Pattern
	if rng.Intn(2) == 0 {
		p = pattern.Seq(window, terms...)
	} else {
		p = pattern.And(window, terms...)
	}
	var aliases []string
	for _, t := range terms {
		if !t.Event.Negated {
			aliases = append(aliases, t.Event.Alias)
		}
	}
	for k := 0; k+1 < len(aliases); k++ {
		p.Conds = append(p.Conds, pattern.AttrCmp(aliases[k], "x", pattern.Eq, aliases[k+1], "x"))
	}
	if rng.Intn(2) == 0 {
		alias := aliases[rng.Intn(len(aliases))]
		p.Conds = append(p.Conds, pattern.Cmp(pattern.Ref(alias, "x"), pattern.Le, pattern.Const(float64(3+rng.Intn(7)))))
	}
	return p
}

// KeyedStream generates n events like Stream but with every x pinned to the
// same key value — the fully skewed distribution under which a
// key-partitioned session routes everything onto one lane.
func KeyedStream(rng *rand.Rand, n int, types []string, maxGap int64, key float64) []*event.Event {
	events := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(1 + rng.Int63n(maxGap))
		typ := types[rng.Intn(len(types))]
		events = append(events, event.New(Schemas[typ], ts, key))
	}
	stream := event.NewSliceStream(events)
	return event.Drain(stream)
}

// RandomPattern builds a random simple pattern over 2..4 positive events
// with 0..2 attribute predicates (<, <=, != or =), optionally with negation
// or Kleene.
func RandomPattern(rng *rand.Rand, window event.Time, negation, kleene bool) *pattern.Pattern {
	n := 2 + rng.Intn(3)
	var terms []pattern.Term
	for i := 0; i < n; i++ {
		typ := TypeNames[rng.Intn(len(TypeNames))]
		terms = append(terms, pattern.E(typ, fmt.Sprintf("e%d", i)))
	}
	if kleene {
		terms[rng.Intn(len(terms))].Event.Kleene = true
	}
	if negation {
		// Insert a negated event at a random position (keeping ≥1 positive).
		typ := TypeNames[rng.Intn(len(TypeNames))]
		neg := pattern.Not(typ, "neg")
		at := rng.Intn(len(terms) + 1)
		terms = append(terms[:at], append([]pattern.Term{neg}, terms[at:]...)...)
	}
	var p *pattern.Pattern
	if rng.Intn(2) == 0 {
		p = pattern.Seq(window, terms...)
	} else {
		p = pattern.And(window, terms...)
	}
	// Random pairwise predicates between positive events. Eq pairs give the
	// shared DAG indexed join edges beside scanned inequality edges, and
	// key chains that cover only some positions.
	aliases := []string{}
	for _, t := range terms {
		if !t.Event.Negated {
			aliases = append(aliases, t.Event.Alias)
		}
	}
	nConds := rng.Intn(3)
	for k := 0; k < nConds && len(aliases) >= 2; k++ {
		i := rng.Intn(len(aliases))
		j := rng.Intn(len(aliases))
		if i == j {
			continue
		}
		op := []pattern.CmpOp{pattern.Lt, pattern.Le, pattern.Ne, pattern.Eq}[rng.Intn(4)]
		p.Conds = append(p.Conds, pattern.AttrCmp(aliases[i], "x", op, aliases[j], "x"))
	}
	// Random constant unary predicates — equality and ranges on x, in both
	// spellings, on any term including negated ones. These are exactly the
	// forms the ingress filter index compiles into its hash and bound
	// tables, so the differential exercises indexed routing against the
	// broadcast reference whenever the session enables FilterIndex.
	var unaryAliases []string
	for _, t := range terms {
		unaryAliases = append(unaryAliases, t.Event.Alias)
	}
	nUnary := rng.Intn(3)
	for k := 0; k < nUnary; k++ {
		alias := unaryAliases[rng.Intn(len(unaryAliases))]
		v := pattern.Const(float64(rng.Intn(10)))
		x := pattern.Ref(alias, "x")
		switch rng.Intn(5) {
		case 0:
			p.Conds = append(p.Conds, pattern.Cmp(x, pattern.Eq, v))
		case 1:
			p.Conds = append(p.Conds, pattern.Cmp(x, pattern.Ge, v))
		case 2:
			p.Conds = append(p.Conds, pattern.Cmp(x, pattern.Lt, v))
		case 3:
			p.Conds = append(p.Conds, pattern.Cmp(v, pattern.Gt, x)) // flipped spelling of x < v
		case 4:
			p.Conds = append(p.Conds, pattern.Cmp(x, pattern.Ne, v)) // not indexable: residual scan
		}
	}
	return p
}
