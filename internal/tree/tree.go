// Package tree implements the tree-based evaluation engine of Section 2.3:
// an instance-based adaptation of ZStream [35] to arbitrary sliding windows.
// Events enter at leaves; each node buffers the partial matches (instances)
// of its subtree; a new instance combines with its sibling's buffered
// instances and propagates towards the root, where full matches are
// reported.
//
// Negation follows Section 5.3: an anchored negated event is checked at the
// lowest node containing both of its anchors (the NSEQ placement); negated
// events whose violators may arrive after completion hold the match in a
// pending queue until the window closes. Kleene leaves enumerate power-set
// groups per Theorem 4, bounded by Config.MaxKleeneBase.
package tree

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/predicate"
)

// DefaultMaxKleeneBase bounds Kleene subset enumeration, as in the NFA
// engine.
const DefaultMaxKleeneBase = 12

const compactEvery = 64

// maxBufCap bounds the buffer pre-size hints: a mis-estimated rate must not
// translate into an arbitrarily large up-front allocation.
const maxBufCap = 4096

// Config tunes an Engine.
type Config struct {
	Strategy      predicate.Strategy
	MaxKleeneBase int
	OnMatch       func(*match.Match)
	// BufferCap pre-sizes each node's instance buffer, keyed by the plan
	// node it is built from. Values come from the cost model's expected
	// partial-match volume PM(N) (Section 4.2) under measured or
	// registration-time statistics; missing entries start empty and grow.
	BufferCap map[*plan.TreeNode]int
}

// Stats exposes the engine's load counters.
type Stats struct {
	Processed    int64
	Matches      int64
	Created      int64 // instances created across all nodes
	PeakPartial  int   // peak live instances
	PeakBuffered int   // peak buffered raw events (Kleene and negated)
	KleeneCapped int64
}

// inst is a partial match: one instance of a subtree.
type inst struct {
	positions [][]*event.Event
	minTS     event.Time
	maxTS     event.Time
	dead      bool
}

// node is one plan-tree node with its instance buffer.
type node struct {
	leafPos int // term position for leaves, -1 for internal nodes
	left    *node
	right   *node
	parent  *node
	sibling *node
	// members lists the term positions under this node.
	members []int
	// pairs lists the (left-position, right-position) pairs that carry
	// predicates, precomputed for the combine step.
	pairs [][2]int
	// negSpecs are the anchored negation specs whose anchors first meet at
	// this node (the NSEQ check).
	negSpecs []predicate.NegSpec
	buffer   []*inst
}

type pendingMatch struct {
	in       *inst
	deadline event.Time
}

// Engine is a single-pattern, single-plan tree evaluation engine.
type Engine struct {
	c   *predicate.Compiled
	cfg Config

	root   *node
	leaves []*node // indexed by term position; nil for negated positions

	negComplete []predicate.NegSpec
	negPending  []predicate.NegSpec
	negBuffers  [][]*event.Event // per negated term position
	rawKleene   [][]*event.Event // per Kleene term position: raw events for grouping
	// singles holds, per ordinary leaf position, the in-window events that
	// entered the leaf as an event.AppendLog, so a leaf instance's group is
	// the one-entry subslice buf[i:i+1:i+1]: no allocation per event, and
	// the entry is never overwritten.
	singles [][]*event.Event

	pending   []pendingMatch
	now       event.Time
	nPartial  int
	nBuffered int
	st        Stats
	out       []*match.Match
	arena     match.Arena

	// free is the engine-local partial-match free list. The engine is a
	// single-goroutine machine, so a plain slice beats sync.Pool here: no
	// per-P shuttling, no GC-driven eviction, and the counters in pstats
	// give exact leak accounting (Live()==0 after Close). Emission copies a
	// match's positions into the arena, so no pooled table ever escapes.
	free          []*inst
	pstats        PoolStats
	kleeneScratch []*event.Event
	groupScratch  []*event.Event
}

// PoolStats counts the engine's partial-match pool traffic. Gets is the
// total number of instance acquisitions (News of them freshly allocated,
// the rest recycled), Puts the returns. Live() is the number of instances
// currently held in node buffers or the pending queue — the leak tests
// assert it reaches zero after Close.
type PoolStats struct {
	News, Gets, Puts int64
}

// Live returns the number of pool-owned instances not yet returned.
func (ps PoolStats) Live() int64 { return ps.Gets - ps.Puts }

// PoolStats returns a copy of the pool counters.
func (e *Engine) PoolStats() PoolStats { return e.pstats }

// getInst acquires an instance with a clean positions table of the
// pattern's width. Entries are always nil on return (putInst clears them),
// so no re-clearing is needed here.
func (e *Engine) getInst() *inst {
	e.pstats.Gets++
	if n := len(e.free); n > 0 {
		in := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		in.dead = false
		return in
	}
	e.pstats.News++
	return &inst{positions: make([][]*event.Event, e.c.N)}
}

// putInst returns an instance the caller solely owns. Position groups are
// dropped here so recycled instances never pin expired events (the groups
// themselves may still be shared read-only with other live instances —
// only the outer table is reused).
func (e *Engine) putInst(in *inst) {
	e.pstats.Puts++
	clear(in.positions)
	e.free = append(e.free, in)
}

// New builds a tree engine for the compiled pattern and plan tree, whose
// leaves must be a permutation of the pattern's positive term positions.
func New(c *predicate.Compiled, planRoot *plan.TreeNode, cfg Config) (*Engine, error) {
	if cfg.MaxKleeneBase <= 0 {
		cfg.MaxKleeneBase = DefaultMaxKleeneBase
	}
	if planRoot == nil {
		return nil, fmt.Errorf("tree: nil plan")
	}
	leaves := planRoot.Leaves()
	positive := make(map[int]bool, len(c.Positives))
	for _, p := range c.Positives {
		positive[p] = true
	}
	if len(leaves) != len(c.Positives) {
		return nil, fmt.Errorf("tree: plan has %d leaves, pattern has %d positive events",
			len(leaves), len(c.Positives))
	}
	seen := make(map[int]bool)
	for _, l := range leaves {
		if !positive[l] || seen[l] {
			return nil, fmt.Errorf("tree: leaves %v are not a permutation of positive positions %v",
				leaves, c.Positives)
		}
		seen[l] = true
	}
	e := &Engine{
		c:          c,
		cfg:        cfg,
		leaves:     make([]*node, c.N),
		negBuffers: make([][]*event.Event, c.N),
		rawKleene:  make([][]*event.Event, c.N),
		singles:    make([][]*event.Event, c.N),
	}
	e.root = e.build(planRoot, nil)
	e.placeNegations()
	return e, nil
}

func (e *Engine) build(pn *plan.TreeNode, parent *node) *node {
	n := &node{leafPos: -1, parent: parent}
	if c := e.cfg.BufferCap[pn]; c > 0 {
		if c > maxBufCap {
			c = maxBufCap
		}
		n.buffer = make([]*inst, 0, c)
	}
	if pn.IsLeaf() {
		n.leafPos = pn.Leaf
		n.members = []int{pn.Leaf}
		e.leaves[pn.Leaf] = n
		return n
	}
	n.left = e.build(pn.Left, n)
	n.right = e.build(pn.Right, n)
	n.left.sibling = n.right
	n.right.sibling = n.left
	n.members = append(append([]int(nil), n.left.members...), n.right.members...)
	for _, i := range n.left.members {
		for _, j := range n.right.members {
			if e.c.Preds.PairCount(i, j) > 0 {
				n.pairs = append(n.pairs, [2]int{i, j})
			}
		}
	}
	return n
}

// placeNegations assigns each anchored negation spec to the lowest node
// containing both anchors, and classifies the rest as completion-time or
// pending checks (same classification as the NFA engine).
func (e *Engine) placeNegations() {
	for _, spec := range e.c.Negs {
		switch {
		case spec.Low >= 0 && spec.High >= 0:
			n := e.lca(spec.Low, spec.High)
			n.negSpecs = append(n.negSpecs, spec)
		case spec.High >= 0:
			e.negComplete = append(e.negComplete, spec)
		default:
			e.negPending = append(e.negPending, spec)
		}
	}
}

func (e *Engine) lca(a, b int) *node {
	n := e.leaves[a]
	for n != nil {
		if contains(n.members, b) {
			return n
		}
		n = n.parent
	}
	return e.root
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.st }

// CurrentPartial returns the number of live instances plus pending matches.
func (e *Engine) CurrentPartial() int { return e.nPartial + len(e.pending) }

// CurrentBuffered returns the number of buffered raw events (Kleene bases
// and negated types).
func (e *Engine) CurrentBuffered() int { return e.nBuffered }

// Process consumes one event (timestamps non-decreasing) and returns the
// matches it completed. The returned slice is reused by the next call; the
// matches in it are not.
func (e *Engine) Process(ev *event.Event) []*match.Match {
	e.out = e.out[:0]
	e.processOne(ev)
	e.arena.Release()
	return e.out
}

// ProcessBatch consumes a timestamp-ordered batch in one wake-up and
// returns the matches of the whole batch, in stream order. Semantically
// identical to calling Process per event; the batch form amortizes the
// output reset and lets one queue item carry many events. The returned
// slice is reused by the next call; the matches in it are not.
func (e *Engine) ProcessBatch(evs []*event.Event) []*match.Match {
	e.out = e.out[:0]
	for _, ev := range evs {
		e.processOne(ev)
	}
	e.arena.Release()
	return e.out
}

func (e *Engine) processOne(ev *event.Event) {
	e.st.Processed++
	e.now = ev.TS

	e.expirePending()
	if len(e.negPending) > 0 {
		e.killPending(ev)
	}

	// Buffer negated positions first: an arriving negated-type event must be
	// visible to the violation checks of any match completed by this very
	// call (it may serve a positive leaf and a negated position at once).
	for pos := 0; pos < e.c.N; pos++ {
		if e.leaves[pos] == nil && e.c.Types[pos] == ev.Type && e.c.Preds.CheckUnary(pos, ev) {
			e.negBuffers[pos] = append(e.negBuffers[pos], ev)
			e.nBuffered++
		}
	}
	for pos := 0; pos < e.c.N; pos++ {
		leaf := e.leaves[pos]
		if leaf == nil || e.c.Types[pos] != ev.Type || !e.c.Preds.CheckUnary(pos, ev) {
			continue
		}
		if e.c.Kleene[pos] {
			e.processKleeneLeaf(leaf, pos, ev)
			continue
		}
		buf := event.AppendLog(e.singles[pos], ev)
		e.singles[pos] = buf
		n := len(buf)
		in := e.getInst()
		in.minTS, in.maxTS = ev.TS, ev.TS
		in.positions[pos] = buf[n-1 : n : n]
		e.insert(leaf, in)
	}
	if e.nBuffered > e.st.PeakBuffered {
		e.st.PeakBuffered = e.nBuffered
	}
	if e.st.Processed%compactEvery == 0 {
		e.compact()
	}
}

// processKleeneLeaf creates one instance per subset of earlier compatible
// raw events, each completed with the arriving event (Theorem 4's power-set
// groups, created exactly once).
func (e *Engine) processKleeneLeaf(leaf *node, pos int, ev *event.Event) {
	// The in-window base set is assembled in a reusable scratch slice: it
	// never escapes (groups copy out of it below), and the events it holds
	// between calls are pinned by rawKleene anyway.
	base := e.kleeneScratch[:0]
	for _, b := range e.rawKleene[pos] {
		if ev.TS-b.TS <= e.c.Window {
			base = append(base, b)
		}
	}
	e.kleeneScratch = base
	if len(base) > e.cfg.MaxKleeneBase {
		base = base[len(base)-e.cfg.MaxKleeneBase:]
		e.st.KleeneCapped++
	}
	for mask := 0; mask < 1<<uint(len(base)); mask++ {
		group := e.groupScratch[:0]
		min, max := ev.TS, ev.TS
		ok := true
		for i := 0; i < len(base) && ok; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			b := base[i]
			group = append(group, b)
			if b.TS < min {
				min = b.TS
			}
			if b.TS > max {
				max = b.TS
			}
			if max-min > e.c.Window {
				ok = false
			}
		}
		e.groupScratch = group
		if !ok {
			continue
		}
		in := e.getInst()
		in.minTS, in.maxTS = min, max
		in.positions[pos] = append(append(make([]*event.Event, 0, len(group)+1), group...), ev)
		e.insert(leaf, in)
	}
	e.rawKleene[pos] = append(e.rawKleene[pos], ev)
	e.nBuffered++
}

// insert registers an instance at a node, applies the node's negation
// checks, and combines it with the sibling's buffered instances, recursing
// towards the root.
func (e *Engine) insert(n *node, in *inst) {
	e.st.Created++
	for _, spec := range n.negSpecs {
		if e.violated(in, spec) {
			e.putInst(in) // rejected before buffering: sole owner
			return
		}
	}
	if n == e.root {
		e.complete(in)
		return
	}
	n.buffer = append(n.buffer, in)
	e.nPartial++
	if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
		e.st.PeakPartial = cur
	}
	sib := n.sibling
	parent := n.parent
	// Snapshot: instances created by this combine round insert themselves
	// recursively; the sibling buffer is only ever extended by *other*
	// events, so iterating the current slice is safe.
	sibInsts := sib.buffer
	for _, other := range sibInsts {
		if other.dead {
			continue
		}
		merged := e.combine(n, in, sib, other, parent)
		if merged != nil {
			e.insert(parent, merged)
		}
	}
}

// combine merges two sibling instances if window, predicates and (under
// skip-till-next-match) consumption allow.
func (e *Engine) combine(ln *node, li *inst, rn *node, ri *inst, parent *node) *inst {
	min, max := li.minTS, li.maxTS
	if ri.minTS < min {
		min = ri.minTS
	}
	if ri.maxTS > max {
		max = ri.maxTS
	}
	if max-min > e.c.Window {
		return nil
	}
	if e.now-min > e.c.Window {
		return nil // expired instance on the other side
	}
	if e.cfg.Strategy == predicate.SkipTillNextMatch &&
		(e.anyConsumed(li) || e.anyConsumed(ri)) {
		return nil
	}
	// An event may fill at most one position: with type-disjoint leaf sets
	// this cannot trigger, but patterns may repeat a type.
	for _, i := range ln.members {
		gi := li.positions[i]
		if gi == nil {
			continue
		}
		for _, j := range rn.members {
			gj := ri.positions[j]
			if gj == nil {
				continue
			}
			for _, a := range gi {
				for _, b := range gj {
					if a == b {
						return nil
					}
				}
			}
		}
	}
	for _, pr := range parent.pairs {
		i, j := pr[0], pr[1]
		var gi, gj []*event.Event
		if gi = li.positions[i]; gi == nil {
			gi = ri.positions[i]
		}
		if gj = li.positions[j]; gj == nil {
			gj = ri.positions[j]
		}
		if gi == nil || gj == nil {
			continue
		}
		if !e.c.CheckGroupPair(i, gi, j, gj) {
			return nil
		}
	}
	merged := e.getInst()
	merged.minTS, merged.maxTS = min, max
	for pos := range merged.positions {
		if li.positions[pos] != nil {
			merged.positions[pos] = li.positions[pos]
		} else if ri.positions[pos] != nil {
			merged.positions[pos] = ri.positions[pos]
		}
	}
	return merged
}

// complete handles a full match at the root. Root instances are never
// buffered, so every path either hands the instance to the pending queue,
// or emits and recycles it.
func (e *Engine) complete(in *inst) {
	if e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(in) {
		e.putInst(in)
		return
	}
	for _, spec := range e.negComplete {
		if e.violated(in, spec) {
			e.putInst(in)
			return
		}
	}
	if len(e.negPending) > 0 {
		for _, spec := range e.negPending {
			if e.violated(in, spec) {
				e.putInst(in)
				return
			}
		}
		e.pending = append(e.pending, pendingMatch{in: in, deadline: in.minTS + e.c.Window})
		if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
			e.st.PeakPartial = cur
		}
		return
	}
	e.emit(in)
}

func (e *Engine) violated(in *inst, spec predicate.NegSpec) bool {
	m := &match.Match{Positions: in.positions}
	for _, b := range e.negBuffers[spec.Pos] {
		if e.now-b.TS > e.c.Window {
			continue
		}
		if oracle.Violates(e.c, m, spec, b) {
			return true
		}
	}
	return false
}

// emit copies the instance's positions into an arena match, delivers it and
// recycles the instance.
func (e *Engine) emit(in *inst) {
	m := e.arena.New(e.c.N)
	copy(m.Positions, in.positions)
	e.st.Matches++
	if e.cfg.Strategy == predicate.SkipTillNextMatch {
		for _, g := range in.positions {
			for _, ev := range g {
				ev.Consume()
			}
		}
	}
	if e.cfg.OnMatch != nil {
		e.cfg.OnMatch(m)
	}
	e.out = append(e.out, m)
	e.putInst(in)
}

func (e *Engine) anyConsumed(in *inst) bool {
	for _, g := range in.positions {
		for _, ev := range g {
			if ev.Consumed() {
				return true
			}
		}
	}
	return false
}

// Flush emits pending matches whose negation verdict can no longer change.
func (e *Engine) Flush() []*match.Match {
	e.out = e.out[:0]
	for _, pd := range e.pending {
		if pd.in.dead || (e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(pd.in)) {
			e.putInst(pd.in)
			continue
		}
		e.emit(pd.in)
	}
	e.pending = nil
	e.arena.Release()
	return e.out
}

// Close releases the engine's buffers, returning every live instance to the
// pool (leak tests assert PoolStats().Live() == 0 after Flush+Close).
func (e *Engine) Close() {
	var walk func(n *node)
	walk = func(n *node) {
		for _, in := range n.buffer {
			e.putInst(in)
		}
		n.buffer = nil
		if n.left != nil {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(e.root)
	for _, pd := range e.pending {
		e.putInst(pd.in)
	}
	e.pending = nil
	e.nPartial = 0
}

func (e *Engine) expirePending() {
	if len(e.pending) == 0 {
		return
	}
	keep := e.pending[:0]
	for _, pd := range e.pending {
		switch {
		case pd.in.dead:
			e.putInst(pd.in)
		case pd.deadline < e.now:
			if e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(pd.in) {
				e.putInst(pd.in)
			} else {
				e.emit(pd.in)
			}
		default:
			keep = append(keep, pd)
		}
	}
	clear(e.pending[len(keep):])
	e.pending = keep
}

func (e *Engine) killPending(ev *event.Event) {
	for _, pd := range e.pending {
		if pd.in.dead {
			continue
		}
		m := &match.Match{Positions: pd.in.positions}
		for _, spec := range e.negPending {
			if oracle.Violates(e.c, m, spec, ev) {
				pd.in.dead = true
				break
			}
		}
	}
}

// compact sweeps expired instances and raw buffers.
func (e *Engine) compact() {
	cut := e.now - e.c.Window
	total := 0
	var walk func(n *node)
	walk = func(n *node) {
		keep := n.buffer[:0]
		for _, in := range n.buffer {
			if in.dead || e.now-in.minTS > e.c.Window ||
				(e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(in)) {
				e.putInst(in)
				continue
			}
			keep = append(keep, in)
		}
		for i := len(keep); i < len(n.buffer); i++ {
			n.buffer[i] = nil
		}
		n.buffer = keep
		total += len(keep)
		if n.left != nil {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(e.root)
	e.nPartial = total
	for pos := range e.negBuffers {
		e.negBuffers[pos], e.nBuffered = purge(e.negBuffers[pos], cut, e.nBuffered)
		e.rawKleene[pos], e.nBuffered = purge(e.rawKleene[pos], cut, e.nBuffered)
		e.singles[pos], _ = purge(e.singles[pos], cut, 0)
	}
}

func purge(buf []*event.Event, cut event.Time, counter int) ([]*event.Event, int) {
	i := 0
	for i < len(buf) && buf[i].TS < cut {
		i++
	}
	return buf[i:], counter - i
}
