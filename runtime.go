package cep

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/nfa"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/tree"
)

// Plan-generation algorithms (Section 7.1 of the paper). TRIVIAL, EFREQ and
// ZSTREAM are the native CPG baselines; the remainder are join-query
// techniques adapted to CEP.
const (
	AlgTrivial    = core.AlgTrivial
	AlgEFreq      = core.AlgEFreq
	AlgGreedy     = core.AlgGreedy
	AlgIIRandom   = core.AlgIIRandom
	AlgIIGreedy   = core.AlgIIGreedy
	AlgDPLD       = core.AlgDPLD
	AlgZStream    = core.AlgZStream
	AlgZStreamOrd = core.AlgZStreamOrd
	AlgDPB        = core.AlgDPB
)

// OrderAlgorithms lists the order-based plan generators.
func OrderAlgorithms() []string { return core.OrderAlgorithmNames() }

// TreeAlgorithms lists the tree-based plan generators.
func TreeAlgorithms() []string { return core.TreeAlgorithmNames() }

// Option configures a Runtime.
type Option func(*options)

type options struct {
	algorithm     string
	strategy      Strategy
	alpha         float64
	maxKleeneBase int
	onMatch       func(*Match)
	profileAnchor []*Event
}

// WithAlgorithm selects the plan-generation algorithm (default AlgGreedy,
// the paper's best quality/time trade-off).
func WithAlgorithm(name string) Option { return func(o *options) { o.algorithm = name } }

// WithStrategy selects the event selection strategy (default
// SkipTillAnyMatch).
func WithStrategy(s Strategy) Option { return func(o *options) { o.strategy = s } }

// WithLatencyWeight sets α of the hybrid cost model Cost_trpt + α·Cost_lat
// (Section 6.1); larger α trades throughput for lower detection latency.
func WithLatencyWeight(alpha float64) Option { return func(o *options) { o.alpha = alpha } }

// WithMaxKleeneBase bounds Kleene-closure power-set enumeration.
func WithMaxKleeneBase(n int) Option { return func(o *options) { o.maxKleeneBase = n } }

// WithOnMatch installs a callback invoked for every match as it is emitted.
func WithOnMatch(fn func(*Match)) Option { return func(o *options) { o.onMatch = fn } }

// WithProfiledLatencyAnchor enables the output profiler of Section 6.1 for
// conjunction patterns: the history slice is replayed once under a cheap
// plan, the profiler records which event most often arrives last in the
// emitted matches, and that position becomes the latency anchor of the
// hybrid cost model. It has an effect only together with a non-zero
// WithLatencyWeight (sequences derive their anchor from the pattern).
func WithProfiledLatencyAnchor(history []*Event) Option {
	return func(o *options) { o.profileAnchor = history }
}

// Runtime is a planned, executable pattern: one evaluation engine per DNF
// disjunct, behind the unified Detector contract.
type Runtime struct {
	pattern *Pattern
	plan    *core.Plan
	engines []metrics.Engine
	matches int64
	closed  bool
	// out gathers the engines' matches; it is reused by the next call, as
	// the Process and ProcessBatch contracts allow.
	out []*Match
}

// New plans the pattern with the given statistics and builds its engines.
func New(p *Pattern, st *Stats, opts ...Option) (*Runtime, error) {
	o := options{algorithm: AlgGreedy, strategy: SkipTillAnyMatch}
	for _, opt := range opts {
		opt(&o)
	}
	if st == nil {
		st = NewStats()
	}
	planner := &core.Planner{Algorithm: o.algorithm, Strategy: o.strategy, Alpha: o.alpha}
	if o.alpha != 0 && len(o.profileAnchor) > 0 {
		anchor, err := profileAnchors(p, st, o.profileAnchor)
		if err != nil {
			return nil, err
		}
		planner.ConjAnchor = anchor
	}
	pl, err := planner.Plan(p, st)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{pattern: p, plan: pl}
	for _, sp := range pl.Simple {
		if sp.IsTree() {
			termRoot := sp.TreeTerms()
			e, err := tree.New(sp.Compiled, termRoot, tree.Config{
				Strategy:      o.strategy,
				MaxKleeneBase: o.maxKleeneBase,
				OnMatch:       o.onMatch,
				BufferCap:     bufferHints(sp, termRoot),
			})
			if err != nil {
				return nil, err
			}
			rt.engines = append(rt.engines, e)
		} else {
			e, err := nfa.New(sp.Compiled, sp.OrderTerms(), nfa.Config{
				Strategy:      o.strategy,
				MaxKleeneBase: o.maxKleeneBase,
				OnMatch:       o.onMatch,
			})
			if err != nil {
				return nil, err
			}
			rt.engines = append(rt.engines, e)
		}
	}
	return rt, nil
}

// maxBufferHint bounds the cost-model buffer pre-size hints handed to the
// engines; a mis-estimated rate must not become a huge up-front allocation.
const maxBufferHint = 4096

// bufferHints computes per-node instance-buffer pre-size hints for a tree
// plan: the cost model's expected partial-match volume PM(N) of every
// sub-join (Section 4.2), evaluated under the statistics the plan was built
// with — measured drift statistics on a re-optimization, registration-time
// statistics otherwise. sp.Tree is in planning positions (what the cost
// model reads); execRoot is the same shape in term positions (what the
// engine is built from), so the two trees are walked in lockstep.
func bufferHints(sp *core.SimplePlan, execRoot *plan.TreeNode) map[*plan.TreeNode]int {
	if sp.Tree == nil || sp.Stats == nil || execRoot == nil {
		return nil
	}
	hints := make(map[*plan.TreeNode]int)
	var walk func(pn, xn *plan.TreeNode)
	walk = func(pn, xn *plan.TreeNode) {
		c := int(cost.TreePM(sp.Stats, pn)) + 1
		if c > maxBufferHint {
			c = maxBufferHint
		}
		hints[xn] = c
		if !pn.IsLeaf() && !xn.IsLeaf() {
			walk(pn.Left, xn.Left)
			walk(pn.Right, xn.Right)
		}
	}
	walk(sp.Tree, execRoot)
	return hints
}

// Process feeds one event (timestamps must be non-decreasing) and returns
// the matches it completed. The returned slice is only valid until the next
// call. A nil event returns ErrNilEvent; after Flush or Close it returns
// ErrClosed.
func (rt *Runtime) Process(e *Event) ([]*Match, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	if e == nil {
		return nil, ErrNilEvent
	}
	out := rt.out[:0]
	for _, eng := range rt.engines {
		out = append(out, eng.Process(e)...)
	}
	rt.out = out
	rt.matches += int64(len(out))
	return out, nil
}

// ProcessBatch feeds a timestamp-ordered batch of events in one call and
// returns the matches the whole batch completed, in stream order. It is
// semantically identical to calling Process per event, but a single-engine
// runtime hands the batch to the engine in one wake-up, amortizing the
// per-event dispatch. The returned slice is only valid until the next call.
func (rt *Runtime) ProcessBatch(events []*Event) ([]*Match, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	for _, e := range events {
		if e == nil {
			return nil, ErrNilEvent
		}
	}
	if len(rt.engines) == 1 {
		if be, ok := rt.engines[0].(interface {
			ProcessBatch([]*Event) []*Match
		}); ok {
			out := be.ProcessBatch(events)
			rt.matches += int64(len(out))
			return out, nil
		}
	}
	out := rt.out[:0]
	for _, e := range events {
		for _, eng := range rt.engines {
			out = append(out, eng.Process(e)...)
		}
	}
	rt.out = out
	rt.matches += int64(len(out))
	return out, nil
}

// ProcessAll feeds a whole (timestamp-ordered, serial-stamped) slice and
// returns every match including flushed pendings. The runtime is flushed —
// and therefore closed — when it returns.
func (rt *Runtime) ProcessAll(events []*Event) ([]*Match, error) {
	var out []*Match
	for _, e := range events {
		ms, err := rt.Process(e)
		if err != nil {
			return out, err
		}
		out = append(out, ms...)
	}
	fl, err := rt.Flush()
	return append(out, fl...), err
}

// EventSource is a pull-based event stream (satisfied by the slice streams
// returned from the ingest helpers and by custom feeds).
type EventSource interface {
	// Next returns the next timestamp-ordered event, or nil at end of
	// stream.
	Next() *Event
}

// ProcessStream drains an event source through the runtime, invoking fn for
// every match (including flushed pendings). fn may be nil when only the
// side effects of WithOnMatch are wanted. The runtime is flushed when it
// returns.
func (rt *Runtime) ProcessStream(src EventSource, fn func(*Match)) error {
	emit := func(ms []*Match) {
		if fn == nil {
			return
		}
		for _, m := range ms {
			fn(m)
		}
	}
	for e := src.Next(); e != nil; e = src.Next() {
		ms, err := rt.Process(e)
		if err != nil {
			return err
		}
		emit(ms)
	}
	ms, err := rt.Flush()
	emit(ms)
	return err
}

// Flush ends the stream: it releases matches held back by trailing-negation
// windows and closes the runtime to further events. Flushing twice returns
// ErrClosed.
func (rt *Runtime) Flush() ([]*Match, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	rt.closed = true
	var out []*Match
	for _, eng := range rt.engines {
		out = append(out, eng.Flush()...)
	}
	rt.matches += int64(len(out))
	return out, nil
}

// Close releases the runtime without flushing: matches still held back by
// trailing-negation windows are discarded, and engines that pool partial
// matches return them. It is idempotent.
func (rt *Runtime) Close() error {
	rt.closed = true
	for _, eng := range rt.engines {
		if c, ok := eng.(interface{ Close() }); ok {
			c.Close()
		}
	}
	return nil
}

// PlanCost returns the cost-model estimate of the chosen plan (summed over
// disjuncts) — the quantity the planner minimised.
func (rt *Runtime) PlanCost() float64 { return rt.plan.TotalCost }

// Matches returns the number of matches emitted so far.
func (rt *Runtime) Matches() int64 { return rt.matches }

// State reports the current live partial matches and buffered events across
// all engines — the memory the cost model predicts.
func (rt *Runtime) State() (partialMatches, bufferedEvents int) {
	for _, eng := range rt.engines {
		partialMatches += eng.CurrentPartial()
		bufferedEvents += eng.CurrentBuffered()
	}
	return partialMatches, bufferedEvents
}

// Describe renders the chosen plan for logs and debugging.
func (rt *Runtime) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern: %s\n", rt.pattern)
	for i, sp := range rt.plan.Simple {
		if len(rt.plan.Simple) > 1 {
			fmt.Fprintf(&b, "disjunct %d: %s\n", i+1, sp.Compiled.Source)
		}
		if sp.IsTree() {
			fmt.Fprintf(&b, "  tree plan %s", describeTree(sp))
		} else {
			aliases := make([]string, len(sp.Order))
			for k, term := range sp.OrderTerms() {
				aliases[k] = sp.Compiled.Aliases[term]
			}
			fmt.Fprintf(&b, "  order plan [%s]", strings.Join(aliases, " "))
		}
		fmt.Fprintf(&b, "  (cost %.2f)", sp.Cost)
		if negs := sp.Compiled.Negs; len(negs) > 0 {
			names := make([]string, len(negs))
			for k, spec := range negs {
				names[k] = sp.Compiled.Aliases[spec.Pos]
			}
			fmt.Fprintf(&b, "  negated: [%s]", strings.Join(names, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// profileAnchors replays the history under a cheap throughput-only plan,
// feeding an output profiler per disjunct, and returns a ConjAnchor hook
// resolving the most-frequently-last term position to its planning index
// (Section 6.1's output profiler).
func profileAnchors(p *Pattern, st *Stats, history []*Event) (func(c *predicate.Compiled, ps *stats.PatternStats) int, error) {
	prePlanner := &core.Planner{Algorithm: AlgGreedy, Strategy: SkipTillAnyMatch}
	pre, err := prePlanner.Plan(p, st)
	if err != nil {
		return nil, err
	}
	// One profiler per disjunct, keyed by the compiled source pattern text.
	profilers := make(map[string]*metrics.OutputProfiler, len(pre.Simple))
	for _, sp := range pre.Simple {
		profiler := metrics.NewOutputProfiler()
		profilers[sp.Compiled.Source.String()] = profiler
		eng, err := nfa.New(sp.Compiled, sp.OrderTerms(), nfa.Config{
			OnMatch: profiler.Observe,
		})
		if err != nil {
			return nil, err
		}
		for _, ev := range history {
			eng.Process(ev)
		}
		eng.Flush()
	}
	return func(c *predicate.Compiled, ps *stats.PatternStats) int {
		profiler := profilers[c.Source.String()]
		if profiler == nil || profiler.Observations() == 0 {
			return -1
		}
		term := profiler.MostFrequentLast()
		for k, ti := range ps.TermIndex {
			if ti == term {
				return k
			}
		}
		return -1
	}, nil
}

func describeTree(sp *core.SimplePlan) string {
	return renderTree(sp.TreeTerms(), sp)
}

func renderTree(n *plan.TreeNode, sp *core.SimplePlan) string {
	if n.IsLeaf() {
		return sp.Compiled.Aliases[n.Leaf]
	}
	return "(" + renderTree(n.Left, sp) + " " + renderTree(n.Right, sp) + ")"
}
