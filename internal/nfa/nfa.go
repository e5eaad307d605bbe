// Package nfa implements the order-based evaluation engine: a lazy chain
// NFA in the style of Kolchinsky et al. [28, 29], as described in
// Section 2.2 of the paper. Given an evaluation order over the positive
// events of a compiled pattern, it processes the stream event by event,
// buffering events that arrive before their step is reached and extending
// stored partial matches both on arrival (when the next expected type
// appears) and by cascading through already-buffered events (out-of-order
// evaluation).
//
// Every partial match is created exactly once — when its last-arriving
// member is processed — so the number of live partial matches tracks the
// Cost_ord model of Section 4.1 directly.
//
// The engine supports all four event selection strategies of Section 6.2
// (contiguity variants arrive pre-lowered as serial predicates in the
// compiled pattern), negation with early checks at the first step where the
// anchors are available (Section 5.3), and Kleene closure with power-set
// semantics (Section 5.2) bounded by Config.MaxKleeneBase.
package nfa

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/predicate"
)

// DefaultMaxKleeneBase bounds the number of buffered events considered when
// enumerating Kleene subsets (the power set of Theorem 4 is intrinsically
// exponential; the most recent events are kept when the cap binds).
const DefaultMaxKleeneBase = 12

// compactEvery controls how often the level stores are swept for dead and
// expired partial matches.
const compactEvery = 64

// Config tunes an Engine.
type Config struct {
	Strategy      predicate.Strategy
	MaxKleeneBase int
	// OnMatch, when set, is invoked for every emitted match in addition to
	// the matches returned by Process/Flush.
	OnMatch func(*match.Match)
	// DisableEarlyNegation defers every anchored negation check to match
	// completion instead of the earliest step where the anchors are
	// available. Semantics are unchanged; the flag exists to measure the
	// benefit of the paper's Section 5.3 placement (see the ablation
	// benchmarks).
	DisableEarlyNegation bool
}

// Stats exposes the engine's load counters; Peak* values are the memory
// proxies reported in the paper's Figure 5.
type Stats struct {
	Processed    int64 // events consumed
	Matches      int64 // full matches emitted
	Created      int64 // partial matches created (incl. completions)
	PeakPartial  int   // peak live partial matches
	PeakBuffered int   // peak buffered events across positions
	KleeneCapped int64 // times the Kleene base cap was applied
}

// pm is a partial match: events bound per term position, with cached
// timestamp bounds and the number of matched steps.
type pm struct {
	positions [][]*event.Event
	minTS     event.Time
	maxTS     event.Time
	steps     int
	extended  bool // skip-till-next: already extended once
	dead      bool
}

type pendingMatch struct {
	p        *pm
	deadline event.Time
}

// PoolStats counts the engine's partial-match pool traffic. Gets is the
// total number of partial-match acquisitions (News of them freshly
// allocated, the rest recycled), Puts the returns. Live() is the number of
// partial matches currently held in the level stores or the pending queue —
// the leak tests assert it reaches zero after Close.
type PoolStats struct {
	News, Gets, Puts int64
}

// Live returns the number of pool-owned partial matches not yet returned.
func (ps PoolStats) Live() int64 { return ps.Gets - ps.Puts }

// Engine is a single-pattern, single-plan evaluation engine. It is not
// safe for concurrent use; run one engine per goroutine.
type Engine struct {
	c   *predicate.Compiled
	cfg Config

	order  []int // term position per step
	stepOf []int // term position → step index, -1 for negated positions

	// negEarly[k] lists negation specs checked when a partial match reaches
	// k matched steps (both anchors available — the paper's "earliest point
	// possible"). negComplete is checked at completion (leading NOT);
	// negPending holds specs whose violators may arrive after completion
	// (trailing NOT / NOT inside AND), forcing the pending queue.
	negEarly    [][]predicate.NegSpec
	negComplete []predicate.NegSpec
	negPending  []predicate.NegSpec

	// buffers holds the in-window events per term position, timestamp-
	// ordered. Each is an event.AppendLog, so an entry is never overwritten
	// and a singleton group is the one-entry subslice buf[i:i+1:i+1] of it:
	// no allocation, and nothing pinned that the buffer did not already
	// hold.
	buffers   [][]*event.Event
	levels    [][]*pm // levels[s-1] holds partial matches with s steps
	pending   []pendingMatch
	now       event.Time
	nBuffered int
	nPartial  int
	st        Stats
	out       []*match.Match
	arena     match.Arena

	// free is the engine-local partial-match free list, with exact
	// accounting in pstats (Live()==0 after Close). Emission copies a
	// match's positions into the arena, so no pooled table ever escapes.
	free   []*pm
	pstats PoolStats
	// snaps is the per-call snapshot of the level stores; kbase and ksub
	// are per-step Kleene scratch (extension recurses to strictly later
	// steps, so one slot per step never aliases a live outer loop).
	snaps [][]*pm
	kbase [][]*event.Event
	ksub  [][]*event.Event
}

// New builds an engine for the compiled pattern and evaluation order.
// orderTerms lists term positions (not planning indices) and must be a
// permutation of the pattern's positive positions.
func New(c *predicate.Compiled, orderTerms []int, cfg Config) (*Engine, error) {
	if cfg.MaxKleeneBase <= 0 {
		cfg.MaxKleeneBase = DefaultMaxKleeneBase
	}
	if len(orderTerms) != len(c.Positives) {
		return nil, fmt.Errorf("nfa: order has %d steps, pattern has %d positive events",
			len(orderTerms), len(c.Positives))
	}
	seen := make(map[int]bool, len(orderTerms))
	positive := make(map[int]bool, len(c.Positives))
	for _, p := range c.Positives {
		positive[p] = true
	}
	for _, p := range orderTerms {
		if !positive[p] || seen[p] {
			return nil, fmt.Errorf("nfa: order %v is not a permutation of the positive positions %v",
				orderTerms, c.Positives)
		}
		seen[p] = true
	}
	e := &Engine{
		c:       c,
		cfg:     cfg,
		order:   append([]int(nil), orderTerms...),
		stepOf:  make([]int, c.N),
		buffers: make([][]*event.Event, c.N),
		levels:  make([][]*pm, len(orderTerms)),
		snaps:   make([][]*pm, len(orderTerms)),
	}
	for _, pos := range orderTerms {
		if c.Kleene[pos] {
			e.kbase = make([][]*event.Event, len(orderTerms))
			e.ksub = make([][]*event.Event, len(orderTerms))
			break
		}
	}
	for i := range e.stepOf {
		e.stepOf[i] = -1
	}
	for s, pos := range e.order {
		e.stepOf[pos] = s
	}
	e.negEarly = make([][]predicate.NegSpec, len(orderTerms)+1)
	for _, spec := range c.Negs {
		switch {
		case spec.Low >= 0 && spec.High >= 0:
			if cfg.DisableEarlyNegation {
				e.negComplete = append(e.negComplete, spec)
				continue
			}
			level := e.stepOf[spec.Low] + 1
			if h := e.stepOf[spec.High] + 1; h > level {
				level = h
			}
			e.negEarly[level] = append(e.negEarly[level], spec)
		case spec.High >= 0: // leading NOT: window start needs the final match
			e.negComplete = append(e.negComplete, spec)
		default: // trailing NOT or NOT inside AND: violators may still arrive
			e.negPending = append(e.negPending, spec)
		}
	}
	return e, nil
}

// N returns the number of steps (positive events).
func (e *Engine) N() int { return len(e.order) }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.st }

// CurrentPartial returns the number of live partial matches (including
// pending full matches).
func (e *Engine) CurrentPartial() int { return e.nPartial + len(e.pending) }

// CurrentBuffered returns the number of buffered events.
func (e *Engine) CurrentBuffered() int { return e.nBuffered }

// PoolStats returns a copy of the pool counters.
func (e *Engine) PoolStats() PoolStats { return e.pstats }

// getPM acquires a partial match with a clean positions table of the
// pattern's width (putPM clears the entries, so no re-clearing is needed).
func (e *Engine) getPM() *pm {
	e.pstats.Gets++
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return p
	}
	e.pstats.News++
	return &pm{positions: make([][]*event.Event, e.c.N)}
}

// putPM returns a partial match the caller solely owns. Its groups are
// dropped so a recycled partial match never pins expired events (the
// groups themselves may still be shared read-only with live ones).
func (e *Engine) putPM(p *pm) {
	e.pstats.Puts++
	clear(p.positions)
	p.minTS, p.maxTS, p.steps, p.extended, p.dead = 0, 0, 0, false, false
	e.free = append(e.free, p)
}

// Process consumes one event (timestamps must be non-decreasing) and
// returns the full matches emitted by it. The returned slice is reused by
// the next call; the matches in it are not.
func (e *Engine) Process(ev *event.Event) []*match.Match {
	e.out = e.out[:0]
	e.processOne(ev)
	e.arena.Release()
	return e.out
}

// ProcessBatch consumes a timestamp-ordered batch in one wake-up and
// returns the matches of the whole batch, in stream order. Semantically
// identical to calling Process per event. The returned slice is reused by
// the next call; the matches in it are not.
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
	e.purgeBuffers()
	if len(e.negPending) > 0 {
		e.killPending(ev)
	}

	// Buffer the event at every position it can serve *before* running
	// extensions: duplicate-use checks prevent it from filling two
	// positions of one match, and completion-time negation checks must see
	// it (an arriving negated-type event may veto a match completed by this
	// very call).
	for pos := 0; pos < e.c.N; pos++ {
		if e.c.Types[pos] == ev.Type && e.c.Preds.CheckUnary(pos, ev) {
			e.buffers[pos] = event.AppendLog(e.buffers[pos], ev)
			e.nBuffered++
		}
	}
	if e.nBuffered > e.st.PeakBuffered {
		e.st.PeakBuffered = e.nBuffered
	}

	// Snapshot the level stores: extensions triggered by this event must
	// not see partial matches created during this same call (those are
	// completed through the buffers by the cascade instead).
	snaps := e.snaps
	copy(snaps, e.levels)

	for s, pos := range e.order {
		if e.c.Types[pos] != ev.Type || !e.c.Preds.CheckUnary(pos, ev) {
			continue
		}
		if s == 0 {
			root := e.getPM() // empty: every step-0 match extends it
			e.tryExtend(root, s, ev)
			e.putPM(root)
			continue
		}
		for _, p := range snaps[s-1] {
			if p.dead || e.expired(p) {
				continue
			}
			if e.cfg.Strategy == predicate.SkipTillNextMatch && (p.extended || e.anyConsumed(p)) {
				continue
			}
			e.tryExtend(p, s, ev)
		}
	}

	clear(snaps)

	if e.st.Processed%compactEvery == 0 {
		e.compact()
	}
}

// Flush emits the pending matches whose negation verdict can no longer
// change (call at end of stream) and returns them.
func (e *Engine) Flush() []*match.Match {
	e.out = e.out[:0]
	for _, pd := range e.pending {
		if !pd.p.dead {
			e.emit(pd.p)
		}
		e.putPM(pd.p)
	}
	e.pending = nil
	e.arena.Release()
	return e.out
}

// Close releases the engine's partial matches — every level store and
// pending match returns to the pool (leak tests assert PoolStats().Live()
// == 0 after Flush+Close). It is idempotent.
func (e *Engine) Close() {
	for s, level := range e.levels {
		for _, p := range level {
			e.putPM(p)
		}
		e.levels[s] = nil
	}
	for _, pd := range e.pending {
		e.putPM(pd.p)
	}
	e.pending = nil
	e.nPartial = 0
}

// tryExtend attempts to extend p (which has s matched steps) with the newly
// arrived event at step s, then cascades through the buffers.
func (e *Engine) tryExtend(p *pm, s int, ev *event.Event) {
	pos := e.order[s]
	if !e.compatible(p, pos, ev) {
		return
	}
	if e.c.Kleene[pos] {
		base := e.kleeneBase(p, s, ev)
		// Subsets of earlier compatible events, each completed with ev.
		e.forEachSubset(s, base, ev, func(group []*event.Event) bool {
			child := e.spawn(p, pos, group)
			if child == nil {
				return false
			}
			child.positions[pos] = append([]*event.Event(nil), group...)
			e.place(child)
			return e.cfg.Strategy == predicate.SkipTillNextMatch
		})
		if e.cfg.Strategy == predicate.SkipTillNextMatch {
			p.extended = true
		}
		return
	}
	// The arriving event was just appended to this position's buffer.
	buf := e.buffers[pos]
	n := len(buf)
	child := e.spawn(p, pos, buf[n-1:n:n])
	if child == nil {
		return
	}
	if e.cfg.Strategy == predicate.SkipTillNextMatch {
		p.extended = true
	}
	e.place(child)
}

// cascade extends a freshly created partial match through buffered events
// at its next step (the lazy NFA's out-of-order completion).
func (e *Engine) cascade(p *pm) {
	s := p.steps
	if s >= len(e.order) {
		return
	}
	pos := e.order[s]
	if e.c.Kleene[pos] {
		base := e.kleeneBase(p, s, nil)
		e.forEachSubset(s, base, nil, func(group []*event.Event) bool {
			child := e.spawn(p, pos, group)
			if child == nil {
				return false
			}
			child.positions[pos] = append([]*event.Event(nil), group...)
			e.place(child)
			return e.cfg.Strategy == predicate.SkipTillNextMatch
		})
		return
	}
	buf := e.buffers[pos]
	for i, b := range buf {
		if e.cfg.Strategy == predicate.SkipTillNextMatch && (b.Consumed() || p.extended) {
			continue
		}
		if !e.compatible(p, pos, b) {
			continue
		}
		child := e.spawn(p, pos, buf[i:i+1:i+1])
		if child == nil {
			continue
		}
		if e.cfg.Strategy == predicate.SkipTillNextMatch {
			p.extended = true
		}
		e.place(child)
		if e.cfg.Strategy == predicate.SkipTillNextMatch {
			break
		}
	}
}

// compatible checks window, duplicate-use and pairwise predicates between
// the candidate and every filled position of p.
func (e *Engine) compatible(p *pm, pos int, cand *event.Event) bool {
	if p.steps > 0 {
		if cand.TS-p.minTS > e.c.Window || p.maxTS-cand.TS > e.c.Window {
			return false
		}
	}
	for q, group := range p.positions {
		if group == nil {
			continue
		}
		for _, g := range group {
			if g == cand {
				return false // one event fills at most one position
			}
		}
		if !e.c.CheckGroupPair(q, group, pos, []*event.Event{cand}) {
			return false
		}
	}
	return true
}

// kleeneBase collects the buffered events at step s's Kleene position
// compatible with p (and distinct from the arriving event), applying the
// subset cap. The result lives in step s's scratch.
func (e *Engine) kleeneBase(p *pm, s int, arriving *event.Event) []*event.Event {
	pos := e.order[s]
	base := e.kbase[s][:0]
	for _, b := range e.buffers[pos] {
		if b == arriving {
			continue
		}
		if e.cfg.Strategy == predicate.SkipTillNextMatch && b.Consumed() {
			continue
		}
		if e.compatible(p, pos, b) {
			base = append(base, b)
		}
	}
	e.kbase[s] = base
	if len(base) > e.cfg.MaxKleeneBase {
		base = base[len(base)-e.cfg.MaxKleeneBase:]
		e.st.KleeneCapped++
	}
	return base
}

// forEachSubset enumerates the subsets of base for step s, each followed by
// last when it is non-nil (the arriving event, which makes the empty subset
// a group too; without it the empty subset is skipped), stopping early when
// fn returns true. Subset members must additionally be mutually within the
// window; incompatible subsets are skipped. The group fn receives lives in
// step s's scratch and is overwritten by the next one.
func (e *Engine) forEachSubset(s int, base []*event.Event, last *event.Event, fn func([]*event.Event) bool) {
	n := len(base)
	start := 0
	if last == nil {
		start = 1
	}
	for mask := start; mask < 1<<uint(n); mask++ {
		subset := e.ksub[s][:0]
		ok := true
		var min, max event.Time
		first := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			b := base[i]
			subset = append(subset, b)
			if first {
				min, max, first = b.TS, b.TS, false
			} else {
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
		}
		if last != nil {
			subset = append(subset, last)
		}
		e.ksub[s] = subset
		if !ok {
			continue
		}
		if fn(subset) {
			return
		}
	}
}

// spawn builds the child partial match of p with group bound at pos,
// returning nil if the combined window is violated. The child takes group
// as is; a caller passing scratch replaces it with a copy.
func (e *Engine) spawn(p *pm, pos int, group []*event.Event) *pm {
	if len(group) == 0 {
		return nil
	}
	min, max := group[0].TS, group[0].TS
	for _, g := range group[1:] {
		if g.TS < min {
			min = g.TS
		}
		if g.TS > max {
			max = g.TS
		}
	}
	if p.steps > 0 {
		if p.minTS < min {
			min = p.minTS
		}
		if p.maxTS > max {
			max = p.maxTS
		}
	}
	if max-min > e.c.Window {
		return nil
	}
	child := e.getPM()
	copy(child.positions, p.positions)
	child.minTS, child.maxTS, child.steps = min, max, p.steps+1
	child.positions[pos] = group
	return child
}

// place registers a new partial match: early negation checks, then either
// storage plus cascade or completion.
func (e *Engine) place(p *pm) {
	e.st.Created++
	for _, spec := range e.negEarly[p.steps] {
		if e.violated(p, spec) {
			e.putPM(p) // rejected before storage: sole owner
			return
		}
	}
	if p.steps == len(e.order) {
		e.complete(p)
		return
	}
	e.levels[p.steps-1] = append(e.levels[p.steps-1], p)
	e.nPartial++
	if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
		e.st.PeakPartial = cur
	}
	e.cascade(p)
}

// complete handles a full positive match: completion-time negation checks,
// pending-queue admission, or immediate emission. A complete match is
// never stored, so every path but the pending queue recycles it here.
func (e *Engine) complete(p *pm) {
	if e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(p) {
		e.putPM(p)
		return
	}
	for _, spec := range e.negComplete {
		if e.violated(p, spec) {
			e.putPM(p)
			return
		}
	}
	if len(e.negPending) > 0 {
		for _, spec := range e.negPending {
			if e.violated(p, spec) {
				e.putPM(p)
				return
			}
		}
		e.pending = append(e.pending, pendingMatch{p: p, deadline: p.minTS + e.c.Window})
		if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
			e.st.PeakPartial = cur
		}
		return
	}
	e.emit(p)
	e.putPM(p)
}

// violated scans the negated position's buffer for an event invalidating p
// under the shared negation semantics.
func (e *Engine) violated(p *pm, spec predicate.NegSpec) bool {
	m := &match.Match{Positions: p.positions}
	for _, b := range e.buffers[spec.Pos] {
		if oracle.Violates(e.c, m, spec, b) {
			return true
		}
	}
	return false
}

// emit copies p's positions into an arena match and delivers it; p stays
// with the caller, which recycles it.
func (e *Engine) emit(p *pm) {
	m := e.arena.New(e.c.N)
	copy(m.Positions, p.positions)
	e.st.Matches++
	if e.cfg.Strategy == predicate.SkipTillNextMatch {
		for _, g := range p.positions {
			for _, ev := range g {
				ev.Consume()
			}
		}
	}
	if e.cfg.OnMatch != nil {
		e.cfg.OnMatch(m)
	}
	e.out = append(e.out, m)
}

func (e *Engine) anyConsumed(p *pm) bool {
	for _, g := range p.positions {
		for _, ev := range g {
			if ev.Consumed() {
				return true
			}
		}
	}
	return false
}

// expirePending emits pending matches whose violators can no longer arrive.
func (e *Engine) expirePending() {
	if len(e.pending) == 0 {
		return
	}
	keep := e.pending[:0]
	for _, pd := range e.pending {
		switch {
		case pd.p.dead:
			e.putPM(pd.p)
		case pd.deadline < e.now:
			if !(e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(pd.p)) {
				e.emit(pd.p)
			}
			e.putPM(pd.p)
		default:
			keep = append(keep, pd)
		}
	}
	clear(e.pending[len(keep):])
	e.pending = keep
}

// killPending applies a newly arrived potential violator to the pending
// queue.
func (e *Engine) killPending(ev *event.Event) {
	for _, pd := range e.pending {
		if pd.p.dead {
			continue
		}
		m := &match.Match{Positions: pd.p.positions}
		for _, spec := range e.negPending {
			if oracle.Violates(e.c, m, spec, ev) {
				pd.p.dead = true
				break
			}
		}
	}
}

func (e *Engine) expired(p *pm) bool {
	return p.steps > 0 && e.now-p.minTS > e.c.Window
}

func (e *Engine) purgeBuffers() {
	cut := e.now - e.c.Window
	for pos, buf := range e.buffers {
		i := 0
		for i < len(buf) && buf[i].TS < cut {
			i++
		}
		if i > 0 {
			e.buffers[pos] = buf[i:]
			e.nBuffered -= i
		}
	}
}

// compact sweeps dead and expired partial matches out of the level stores.
func (e *Engine) compact() {
	total := 0
	for s, level := range e.levels {
		keep := level[:0]
		for _, p := range level {
			if p.dead || e.expired(p) ||
				(e.cfg.Strategy == predicate.SkipTillNextMatch && e.anyConsumed(p)) {
				e.putPM(p)
				continue
			}
			keep = append(keep, p)
		}
		clear(level[len(keep):])
		e.levels[s] = keep
		total += len(keep)
	}
	e.nPartial = total
}
