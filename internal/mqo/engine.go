package mqo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/predicate"
)

const compactEvery = 64

// maxBufCap bounds the cost model's buffer pre-size hints: a mis-estimated
// (or drifted) rate must not translate into an arbitrarily large up-front
// allocation.
const maxBufCap = 4096

// Tagged is one match produced by the shared DAG, tagged with the consuming
// query's name.
type Tagged struct {
	Query string
	M     *match.Match
}

// EngineStats exposes the shared engine's load counters. Across a splice
// (AdoptFrom) only Processed continues — it is the stream position, the
// maximum over the sources (every source saw the same broadcast stream).
// Matches, Created and Backfilled are per-engine-lifetime counters and
// restart with each successor engine.
type EngineStats struct {
	Processed   int64
	Matches     int64
	Created     int64 // instances created across all nodes
	Backfilled  int64 // instances recomputed bottom-up during AdoptFrom
	Probes      int64 // join combine attempts (pairings tested at join nodes)
	NegKilled   int64 // matches suppressed by negation checks
	PeakPartial int   // peak buffered instances
	Nodes       int   // distinct DAG nodes
	SharedNodes int   // nodes with more than one consuming parent or query
	Queries     int
}

// consumer is one query whose root is a given DAG node. Negation queries
// share the positive core: the sub-joins below the root know nothing about
// the negated terms, and the consumer applies the checks of Section 5.3 —
// completion-time checks for anchored and leading negations, a pending
// queue for negations whose violators may arrive after completion — exactly
// as the private tree engine would.
type consumer struct {
	name   string
	c      *predicate.Compiled
	termOf []int // node slot -> compiled term position
	// since is the stream sequence number from which this query observes
	// events: a match is emitted only when every constituent event arrived
	// at or after it. Queries registered before the first event have 0;
	// queries added to a live session have the splice watermark, so shared
	// buffers never leak pre-registration matches into them.
	since uint64
	// negComplete are the negation specs checkable when a match completes
	// (the violation range is closed by then); negPending are the specs
	// whose violators may still arrive, forcing the pending queue.
	negComplete []predicate.NegSpec
	negPending  []predicate.NegSpec
	// negBufs buffers the in-window events of each negated position,
	// indexed like c.Negs (negComplete ++ negPending share it via spec.Pos).
	negBufs map[int][]*event.Event
}

// hasNegs reports whether the consumer carries negation state.
func (cons *consumer) hasNegs() bool { return len(cons.c.Negs) > 0 }

// edge links a node to one consuming parent; side is 0 when the node feeds
// the parent's left input, 1 for the right. A self-join parent holds two
// edges to the same child, one per side.
type edge struct {
	parent *node
	side   int
}

// crossPred is one pairwise predicate evaluated at a join node, expressed
// in child slot space: fn receives the left child's event at slot l and the
// right child's event at slot r. eqAttr names the attribute when the
// predicate is a same-attribute equality; the join's first such predicate
// keys its index (index.go).
type crossPred struct {
	l, r   int
	fn     predicate.PairFn
	eqAttr string
}

// node is one DAG node: a leaf (event-type intake with unary filters) or a
// join over two children. Its buffer holds the sub-join's live partial
// matches — computed once however many parents and query roots consume
// them. Leaves are keyed without the window (the selection layer: one
// filtered intake per distinct type+filter set, shared across queries with
// different windows) and retain events to the widest consumer window; join
// nodes re-check their own window at combine time.
type node struct {
	key    string
	window event.Time
	slots  int
	// bufCap is the cost model's pre-size hint for the instance buffer: the
	// expected partial-match volume PM(N) of Section 4.2, evaluated under
	// the statistics the node was planned with (measured drift statistics on
	// a re-optimization splice, registration-time statistics otherwise).
	bufCap int

	// leaf fields
	leafType string
	unary    []predicate.UnaryFn
	// leafConds/leafResidual split the leaf's unary filters for the ingress
	// filter index: declarative conditions it can classify, plus opaque
	// closures it must scan. Together they cover exactly `unary`, so an
	// index verdict substitutes for running the filters.
	leafConds    []pattern.Condition
	leafResidual []predicate.UnaryFn

	// join fields
	left, right       *node
	leftMap, rightMap []int // child slot -> this node's slot
	cross             []crossPred
	needDisjoint      bool // left/right type multisets intersect
	// probe[s] is the child index an instance arriving from side s looks up
	// with the key probeKey[s] reads from it; nil for a join without a
	// same-attribute equality, which scans the sibling's buffer (index.go).
	probe    [2]*joinIndex
	probeKey [2]eqKey

	parents   []edge
	consumers []consumer
	buffer    []*inst
	// indexes are the equi-join indexes parents probe this buffer through.
	indexes []*joinIndex

	// sinceSeq is the stream sequence number from which the buffer is
	// complete: it holds every live instance all of whose constituents
	// arrived at or after it (and possibly older bonus instances from
	// backfill). 0 for nodes alive since the engine's first event; the
	// splice watermark for nodes created empty mid-stream.
	sinceSeq uint64
}

func (n *node) isLeaf() bool { return n.left == nil }

// inst is one partial match of a node's sub-join: exactly one event per
// slot (Kleene closure is outside the shareable fragment). minSeq is the
// smallest stream sequence number among the constituents — the value the
// per-consumer Since watermark filters on. seq holds the per-slot stream
// sequence numbers when the engine runs with provenance enabled, and is
// nil otherwise — the invariant is engine-wide, so no per-instance check
// is needed on the hot path.
type inst struct {
	ev     []*event.Event
	seq    []uint64
	minTS  event.Time
	maxTS  event.Time
	minSeq uint64
}

// pending is a completed match held back because a negation's violators may
// still arrive (trailing or unanchored NOT); it is emitted when the window
// closes, unless a violator kills it first.
type pending struct {
	cons     *consumer
	m        *match.Match
	deadline event.Time
	dead     bool
}

// Engine is the shared evaluation DAG: a single-goroutine detection machine
// evaluating every member query at once. Events enter at type-indexed
// leaves, partial matches propagate along parent edges (fanning out at
// shared nodes), and full matches emit at query roots tagged with the query
// name. Negation members additionally buffer their negated types and apply
// the violation checks at their root.
type Engine struct {
	nodes   []*node
	byType  map[string][]*node
	names   []string    // member query names, registration order
	negCons []*consumer // consumers carrying negation state, cached off the hot path

	// Subscription slot tables for masked (index-routed) processing.
	// Slots 0..len(negSlots)-1 address negation-buffer intakes, the rest
	// leaf intakes — so a sorted hit-slot list reproduces processOne's
	// negation-before-leaf order by construction.
	negSlots  []negSlot
	leafSlots []*node

	// Key-partitioned lanes (see partition.go): when partTotal > 1 this
	// engine owns only events whose partAttr value hashes into bucket
	// partIdx — leaf insertions of other buckets are skipped (negation
	// buffering is NOT gated: a violator must be visible to all siblings,
	// whichever lane their matches live on). family is the identity token
	// shared by the component's sibling engines; AdoptFrom unions a family's
	// buffers instead of choosing between them.
	partAttr  string
	partIdx   int
	partTotal int
	family    *partFamily

	// prov enables match provenance: instances carry per-slot stream
	// sequence numbers and every emitted match gets a Prov record whose
	// Seqs align with Events(). Set once, before the first event.
	prov bool

	now      event.Time
	nPartial int
	pendings []pending
	closed   bool
	st       EngineStats
	out      []Tagged
	// arena backs the matches of one call; check is the scratch view
	// negation consumers are vetted on before anything is allocated.
	arena match.Arena
	check match.Match

	// free is the engine-local partial-match free list. The engine is a
	// single-goroutine machine, so a plain slice beats sync.Pool here: no
	// per-P shuttling, no GC-driven eviction, and the counters in pstats
	// give exact leak accounting (Live()==0 after Close).
	free   []*inst
	pstats PoolStats
}

// PoolStats counts the engine's partial-match pool traffic. Gets is the
// total number of instance acquisitions (News of them freshly allocated,
// the rest recycled), Puts the returns. Live() is the number of instances
// currently owned by node buffers — the leak tests assert it reaches zero
// after Close.
type PoolStats struct {
	News, Gets, Puts int64
}

// Live returns the number of pool-owned instances not yet returned.
func (ps PoolStats) Live() int64 { return ps.Gets - ps.Puts }

// PoolStats returns a copy of the pool counters.
func (e *Engine) PoolStats() PoolStats { return e.pstats }

// getInst acquires an instance with its event slice sized to slots. Slice
// entries beyond the previous length are always nil (putInst clears up to
// the length in use), so no re-clearing is needed on reuse.
func (e *Engine) getInst(slots int) *inst {
	e.pstats.Gets++
	if n := len(e.free); n > 0 {
		in := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		if cap(in.ev) < slots {
			in.ev = make([]*event.Event, slots)
		} else {
			in.ev = in.ev[:slots]
		}
		if e.prov {
			if cap(in.seq) < slots {
				in.seq = make([]uint64, slots)
			} else {
				in.seq = in.seq[:slots]
			}
		}
		return in
	}
	e.pstats.News++
	in := &inst{ev: make([]*event.Event, slots)}
	if e.prov {
		in.seq = make([]uint64, slots)
	}
	return in
}

// putInst returns an instance to the free list. The caller must be the sole
// owner; event references are dropped here so recycled instances never pin
// expired events.
func (e *Engine) putInst(in *inst) {
	e.pstats.Puts++
	for i := range in.ev {
		in.ev[i] = nil
	}
	e.free = append(e.free, in)
}

// Names returns the member query names in registration order.
func (e *Engine) Names() []string { return append([]string(nil), e.names...) }

// Partition describes the engine's key-partition assignment: lane idx of
// total hash buckets over the equi-join attribute attr. total <= 1 means
// the engine is unpartitioned (attr is then empty).
func (e *Engine) Partition() (idx, total int, attr string) {
	return e.partIdx, e.partTotal, e.partAttr
}

// NegSlotCount returns the number of negation-buffer subscription slots —
// the boundary below which Subscriptions' slot numbers address negation
// intakes. A partition-aware router must not key-filter hits at negation
// slots: violators belong to every sibling lane.
func (e *Engine) NegSlotCount() int { return len(e.negSlots) }

// ownsEvent reports whether a partitioned engine's leaf intakes own the
// event; an unpartitioned engine owns everything.
func (e *Engine) ownsEvent(ev *event.Event) bool {
	return e.partTotal <= 1 || PartitionBucket(ev, e.partAttr, e.partTotal) == e.partIdx
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.st }

// EnableProvenance switches the engine into provenance mode: instances
// thread per-slot stream sequence numbers and emitted matches carry a
// match.Prov whose Seqs exactly mirror Events(). Must be called before the
// first event is processed; a splice adopting from predecessors without
// provenance yields zero seqs for the adopted constituents, so callers
// should enable it uniformly across generations.
func (e *Engine) EnableProvenance() { e.prov = true }

// CurrentPartial returns the number of live buffered instances plus pending
// matches.
func (e *Engine) CurrentPartial() int { return e.nPartial + len(e.pendings) }

// Process consumes one event (timestamps non-decreasing) and returns the
// tagged matches it completed across all member queries. seq is the
// event's stream sequence number (strictly increasing with submission
// order); it seeds the instance watermarks the per-consumer Since filter
// compares against. The returned slice is reused by the next call; the
// matches in it are not.
func (e *Engine) Process(ev *event.Event, seq uint64) []Tagged {
	e.out = e.out[:0]
	e.processOne(ev, seq)
	e.arena.Release()
	return e.out
}

// ProcessBatch consumes a timestamp-ordered batch in one wake-up and
// returns the tagged matches of the whole batch, in stream order. seq0 is
// the stream sequence number of the first event; the i-th event carries
// seq0+i. Semantically identical to calling Process per event; the batch
// form amortizes the output reset and lets one queue item carry many
// events. The returned slice is reused by the next call; the matches in it
// are not.
func (e *Engine) ProcessBatch(evs []*event.Event, seq0 uint64) []Tagged {
	e.out = e.out[:0]
	for i, ev := range evs {
		e.processOne(ev, seq0+uint64(i))
	}
	e.arena.Release()
	return e.out
}

func (e *Engine) processOne(ev *event.Event, seq uint64) {
	e.st.Processed++
	e.now = ev.TS

	e.expirePendings()
	e.killPendings(ev)

	// Buffer negated positions first: an arriving negated-type event must be
	// visible to the violation checks of any match completed by this very
	// call (it may serve a positive leaf and a negated position at once).
	for _, cons := range e.negCons {
		for _, spec := range cons.c.Negs {
			pos := spec.Pos
			if cons.c.Types[pos] == ev.Type && cons.c.Preds.CheckUnary(pos, ev) {
				cons.negBufs[pos] = append(cons.negBufs[pos], ev)
			}
		}
	}

	if e.ownsEvent(ev) {
		for _, leaf := range e.byType[ev.Type] {
			ok := true
			for _, fn := range leaf.unary {
				if !fn(ev) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			in := e.getInst(1)
			in.ev[0] = ev
			if e.prov {
				in.seq[0] = seq
			}
			in.minTS, in.maxTS, in.minSeq = ev.TS, ev.TS, seq
			e.insert(leaf, in)
		}
	}
	if e.st.Processed%compactEvery == 0 {
		e.compact()
	}
}

// negSlot is one negation-buffer intake: events of the negated position's
// type passing its unary filters are buffered on the consumer.
type negSlot struct {
	cons *consumer
	pos  int
}

// Sub describes one event intake of the DAG for registration with the
// ingress filter index: an event of Type satisfying every condition in
// Conds and every opaque filter in Residual belongs to the intake
// addressed by Slot.
type Sub struct {
	Slot     int
	Type     string
	Conds    []pattern.Condition
	Residual []predicate.UnaryFn
}

// Subscriptions enumerates the engine's event intakes — negation buffers
// first, then leaves, matching the slot tables masked processing consumes.
func (e *Engine) Subscriptions() []Sub {
	out := make([]Sub, 0, len(e.negSlots)+len(e.leafSlots))
	for i, ns := range e.negSlots {
		var conds []pattern.Condition
		var res []predicate.UnaryFn
		for _, u := range ns.cons.c.Preds.Unaries(ns.pos) {
			if u.HasCond {
				conds = append(conds, u.Cond)
			} else {
				res = append(res, u.Fn)
			}
		}
		out = append(out, Sub{Slot: i, Type: ns.cons.c.Types[ns.pos], Conds: conds, Residual: res})
	}
	for j, leaf := range e.leafSlots {
		out = append(out, Sub{
			Slot: len(e.negSlots) + j, Type: leaf.leafType,
			Conds: leaf.leafConds, Residual: leaf.leafResidual,
		})
	}
	return out
}

// ProcessSelected consumes one event the ingress filter index already
// matched against this engine's subscriptions. slots is the sorted
// ascending list of hit subscription slots; type dispatch and unary
// filtering are NOT re-run — the verdict stands in for them. Semantically
// identical to Process for any event whose slot list is exact. The
// returned slice is reused by the next call; the matches in it are not.
func (e *Engine) ProcessSelected(ev *event.Event, seq uint64, slots []int32) []Tagged {
	e.out = e.out[:0]
	e.processSelected(ev, seq, slots)
	e.arena.Release()
	return e.out
}

// ProcessBatchSelected is the batched form of ProcessSelected: sel lists
// the matched events' indices within evs (ascending), and the k-th
// selected event's slot list is slots[slotOff[k]:slotOff[k+1]]. The i-th
// event of evs carries sequence number seq0+i, exactly as in ProcessBatch.
func (e *Engine) ProcessBatchSelected(evs []*event.Event, seq0 uint64, sel, slotOff, slots []int32) []Tagged {
	e.out = e.out[:0]
	for k, i := range sel {
		e.processSelected(evs[i], seq0+uint64(i), slots[slotOff[k]:slotOff[k+1]])
	}
	e.arena.Release()
	return e.out
}

func (e *Engine) processSelected(ev *event.Event, seq uint64, slots []int32) {
	e.st.Processed++
	e.now = ev.TS

	e.expirePendings()
	nneg := len(e.negSlots)
	k := 0
	if k < len(slots) && int(slots[k]) < nneg {
		// Only an event satisfying some negated position's type+filters can
		// violate a pending match (oracle.Violates re-checks both), and any
		// such event hits that position's negation slot.
		e.killPendings(ev)
		for ; k < len(slots) && int(slots[k]) < nneg; k++ {
			ns := e.negSlots[slots[k]]
			ns.cons.negBufs[ns.pos] = append(ns.cons.negBufs[ns.pos], ev)
		}
	}
	// The engine-side ownership gate backstops the router: an index-routed
	// hit list may include leaf slots of events another sibling owns (the
	// router filters them too, but the double check keeps correctness
	// independent of the routing path).
	if k < len(slots) && e.ownsEvent(ev) {
		for ; k < len(slots); k++ {
			leaf := e.leafSlots[int(slots[k])-nneg]
			in := e.getInst(1)
			in.ev[0] = ev
			if e.prov {
				in.seq[0] = seq
			}
			in.minTS, in.maxTS, in.minSeq = ev.TS, ev.TS, seq
			e.insert(leaf, in)
		}
	}
	if e.st.Processed%compactEvery == 0 {
		e.compact()
	}
}

// insert registers an instance at a node: it emits at every query root
// anchored here, then — if any parent consumes this sub-join — buffers the
// instance and combines it with each parent's sibling buffer, recursing
// towards the roots. This is the fan-out: one insertion serves every
// consuming plan.
func (e *Engine) insert(n *node, in *inst) {
	e.st.Created++
	for i := range n.consumers {
		e.emit(&n.consumers[i], in)
	}
	if len(n.parents) == 0 {
		// Pure root: nothing buffers the instance, so it dies here — emit
		// copies the events out, the instance itself recycles.
		e.putInst(in)
		return
	}
	n.buffer = append(n.buffer, in)
	for _, ix := range n.indexes {
		ix.add(in)
	}
	e.nPartial++
	if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
		e.st.PeakPartial = cur
	}
	for _, ed := range n.parents {
		p := ed.parent
		// Snapshot: recursive inserts only extend ancestors' buffers and
		// indexes, never the sibling's — except in the self-join case
		// (sibling == n), where the snapshot already contains `in` itself and
		// the event-disjointness check rejects the self-pairing.
		for _, other := range p.candidates(ed.side, in) {
			li, ri := in, other
			if ed.side == 1 {
				li, ri = other, in
			}
			if merged := e.combine(p, li, ri); merged != nil {
				e.insert(p, merged)
			}
		}
	}
}

// combine merges a left and right child instance at a join node if window,
// event-disjointness and the node's pairwise predicates allow.
func (e *Engine) combine(p *node, li, ri *inst) *inst {
	e.st.Probes++
	min, max := li.minTS, li.maxTS
	if ri.minTS < min {
		min = ri.minTS
	}
	if ri.maxTS > max {
		max = ri.maxTS
	}
	if max-min > p.window {
		return nil
	}
	if e.now-min > p.window {
		return nil // expired instance on the other side
	}
	if p.needDisjoint {
		// An event may fill at most one slot: with type-disjoint children
		// this cannot trigger, but queries may repeat a type (self-joins).
		for _, a := range li.ev {
			for _, b := range ri.ev {
				if a == b {
					return nil
				}
			}
		}
	}
	for _, cp := range p.cross {
		if !cp.fn(li.ev[cp.l], ri.ev[cp.r]) {
			return nil
		}
	}
	merged := e.getInst(p.slots)
	merged.minTS, merged.maxTS, merged.minSeq = min, max, li.minSeq
	if ri.minSeq < merged.minSeq {
		merged.minSeq = ri.minSeq
	}
	for i, s := range p.leftMap {
		merged.ev[s] = li.ev[i]
	}
	for i, s := range p.rightMap {
		merged.ev[s] = ri.ev[i]
	}
	if e.prov {
		for i, s := range p.leftMap {
			merged.seq[s] = li.seq[i]
		}
		for i, s := range p.rightMap {
			merged.seq[s] = ri.seq[i]
		}
	}
	return merged
}

// emit materializes a root instance as one query's match, filtering by the
// consumer's Since watermark and applying its negation checks. Delivered
// matches come from the arena; a vetoed match is checked on the scratch
// view and never allocated; a pending match (trailing negation) may wait
// across many calls, so it is allocated on its own and never pins a chunk.
func (e *Engine) emit(cons *consumer, in *inst) {
	if in.minSeq < cons.since {
		return // predates the query's registration
	}
	if !cons.hasNegs() {
		e.deliver(cons, e.materialize(cons, in, true))
		return
	}
	chk := &e.check
	if cap(chk.Positions) < cons.c.N {
		chk.Positions = make([][]*event.Event, cons.c.N)
	}
	chk.Positions = chk.Positions[:cons.c.N]
	clear(chk.Positions)
	for slot := range in.ev {
		chk.Positions[cons.termOf[slot]] = in.ev[slot : slot+1 : slot+1]
	}
	for _, spec := range cons.negComplete {
		if e.violated(cons, chk, spec) {
			e.st.NegKilled++
			return
		}
	}
	if len(cons.negPending) > 0 {
		for _, spec := range cons.negPending {
			if e.violated(cons, chk, spec) {
				e.st.NegKilled++
				return
			}
		}
		e.pendings = append(e.pendings, pending{
			cons: cons, m: e.materialize(cons, in, false), deadline: in.minTS + cons.c.Window,
		})
		if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
			e.st.PeakPartial = cur
		}
		return
	}
	e.deliver(cons, e.materialize(cons, in, true))
}

// materialize builds one query's match from a root instance, remapping node
// slots to the query's compiled term positions. The match, its table and
// its events come from the arena when fromArena is set, else from three
// allocations of their own.
func (e *Engine) materialize(cons *consumer, in *inst, fromArena bool) *match.Match {
	var m *match.Match
	var flat []*event.Event
	if fromArena {
		m, flat = e.arena.New(cons.c.N), e.arena.Events(len(in.ev))
	} else {
		m, flat = match.New(cons.c.N), make([]*event.Event, len(in.ev))
	}
	// One flat backing array serves every position group. The 3-arg slice
	// caps each group at length 1 so a consumer appending to a group cannot
	// clobber its neighbor's slot.
	copy(flat, in.ev)
	for slot := range flat {
		m.Positions[cons.termOf[slot]] = flat[slot : slot+1 : slot+1]
	}
	if e.prov {
		// Seqs mirror Events(): events flatten in term-position order, so
		// each slot's seq lands at the rank of its term position among the
		// instance's slots. The quadratic scan is over ≤ a handful of slots.
		seqs := make([]uint64, len(in.ev))
		for slot := range in.ev {
			rank := 0
			for other := range in.ev {
				if cons.termOf[other] < cons.termOf[slot] {
					rank++
				}
			}
			seqs[rank] = in.seq[slot]
		}
		m.Prov = &match.Prov{Seqs: seqs}
	}
	return m
}

// deliver appends one tagged match to the output batch.
func (e *Engine) deliver(cons *consumer, m *match.Match) {
	e.st.Matches++
	e.out = append(e.out, Tagged{Query: cons.name, M: m})
}

// violated reports whether a buffered in-window event of the spec's negated
// type invalidates the match.
func (e *Engine) violated(cons *consumer, m *match.Match, spec predicate.NegSpec) bool {
	for _, b := range cons.negBufs[spec.Pos] {
		if e.now-b.TS > cons.c.Window {
			continue
		}
		if oracle.Violates(cons.c, m, spec, b) {
			return true
		}
	}
	return false
}

// expirePendings emits pending matches whose negation verdict can no longer
// change (the window closed without a violator).
func (e *Engine) expirePendings() {
	if len(e.pendings) == 0 {
		return
	}
	keep := e.pendings[:0]
	for _, pd := range e.pendings {
		switch {
		case pd.dead:
		case pd.deadline < e.now:
			e.deliver(pd.cons, pd.m)
		default:
			keep = append(keep, pd)
		}
	}
	clear(e.pendings[len(keep):])
	e.pendings = keep
}

// killPendings marks pending matches violated by the arriving event.
func (e *Engine) killPendings(ev *event.Event) {
	for i := range e.pendings {
		pd := &e.pendings[i]
		if pd.dead {
			continue
		}
		for _, spec := range pd.cons.negPending {
			if oracle.Violates(pd.cons.c, pd.m, spec, ev) {
				pd.dead = true
				e.st.NegKilled++
				break
			}
		}
	}
}

// compact sweeps expired instances from every buffering node — its indexes
// first, with the same expiry test, before the buffer recycles them — and
// expired events from the negation buffers.
func (e *Engine) compact() {
	total := 0
	for _, n := range e.nodes {
		if len(n.parents) == 0 {
			continue
		}
		for _, ix := range n.indexes {
			ix.sweep(e.now, n.window)
		}
		keep := n.buffer[:0]
		for _, in := range n.buffer {
			if e.now-in.minTS > n.window {
				e.putInst(in)
				continue
			}
			keep = append(keep, in)
		}
		// Release the dropped tail so expired instances are collectable.
		for i := len(keep); i < len(n.buffer); i++ {
			n.buffer[i] = nil
		}
		n.buffer = keep
		total += len(keep)
	}
	e.nPartial = total
	for _, cons := range e.negCons {
		for pos, buf := range cons.negBufs {
			i := 0
			for i < len(buf) && e.now-buf[i].TS > cons.c.Window {
				i++
			}
			cons.negBufs[pos] = buf[i:]
		}
	}
}

// Flush ends the stream: pending matches whose violator never arrived are
// released, tagged like regular emissions.
func (e *Engine) Flush() []Tagged {
	e.closed = true
	e.out = e.out[:0]
	for _, pd := range e.pendings {
		if !pd.dead {
			e.deliver(pd.cons, pd.m)
		}
	}
	e.pendings = nil
	e.arena.Release()
	return e.out
}

// Close releases the engine's buffers and indexes, returning every buffered
// instance to the pool (leak tests assert PoolStats().Live() == 0
// afterwards).
func (e *Engine) Close() {
	e.closed = true
	for _, n := range e.nodes {
		for _, ix := range n.indexes {
			ix.buckets, ix.spare = nil, nil
		}
		for _, in := range n.buffer {
			e.putInst(in)
		}
		n.buffer = nil
	}
	e.pendings = nil
	e.nPartial = 0
}

// AdoptFrom transfers the live detection state of the predecessor engines
// into this (freshly built, never processed) engine — the splice step of
// incremental re-optimization. Nodes are matched by canonical key: a
// buffer present in a predecessor (preferring the source complete from the
// earliest watermark) is copied; a buffering node with no source is
// backfilled bottom-up by re-joining its children's buffers, so replanning
// a surviving query never loses the partial matches its old tree had
// accumulated. Consumers recover their negation buffers and pending
// matches by query name. spliceSeq is the watermark stamped on nodes that
// cannot be reconstructed (their sub-join was never live before).
//
// Adopted buffers are deep copies drawn from this engine's own instance
// pool: several successors may adopt from the same predecessors, and a
// predecessor's Close recycles its instances into its own free list — so
// no instance may be shared across engines.
//
// The caller must guarantee quiescence: no Process call may be in flight on
// any engine involved, and the predecessors are discarded afterwards.
func (e *Engine) AdoptFrom(olds []*Engine, spliceSeq uint64) {
	// Only the stream clock carries over (every predecessor saw the same
	// broadcast events, so max is the true count and keeps the compaction
	// cadence). Matches/Created restart at zero: they are per-engine-
	// lifetime counters, and summing predecessors would multiply-count
	// history when one splice fans out into several successor lanes.
	for _, old := range olds {
		if old.st.Processed > e.st.Processed {
			e.st.Processed = old.st.Processed
		}
		if old.now > e.now {
			e.now = old.now
		}
	}

	// Index predecessor nodes by key, keeping the most complete source.
	// Partition siblings (engines sharing a family token) are slices of one
	// logical buffer: each family contributes ONE candidate per key whose
	// buffer is the union of the siblings' buffers — disjoint by
	// construction, so concatenation never duplicates — and whose watermark
	// is the max (most conservative) sinceSeq across the members holding the
	// node. Unrelated predecessors remain independent alternatives, compared
	// by earliest watermark as before.
	type source struct {
		sinceSeq uint64
		bufs     [][]*inst
		n        int
	}
	grouped := map[*partFamily][]*Engine{}
	var order []*partFamily // deterministic group iteration, olds order
	for _, old := range olds {
		fam := old.family
		if fam == nil {
			fam = &partFamily{} // singleton group
		}
		if _, ok := grouped[fam]; !ok {
			order = append(order, fam)
		}
		grouped[fam] = append(grouped[fam], old)
	}
	best := map[string]*source{}
	for _, fam := range order {
		cands := map[string]*source{}
		for _, old := range grouped[fam] {
			for _, n := range old.nodes {
				if len(n.parents) == 0 {
					continue // never buffered: not a usable source
				}
				c := cands[n.key]
				if c == nil {
					c = &source{sinceSeq: n.sinceSeq}
					cands[n.key] = c
				}
				if n.sinceSeq > c.sinceSeq {
					c.sinceSeq = n.sinceSeq
				}
				c.bufs = append(c.bufs, n.buffer)
				c.n += len(n.buffer)
			}
		}
		for key, c := range cands {
			if cur, ok := best[key]; !ok || c.sinceSeq < cur.sinceSeq {
				best[key] = c
			}
		}
	}

	// e.nodes is in build order (children precede parents), so a backfill
	// always finds its children's buffers already settled.
	for _, n := range e.nodes {
		if len(n.parents) == 0 && len(n.consumers) > 0 && !n.isLeaf() {
			// Pure roots never buffer; completeness is inherited lazily from
			// the children at combine time.
			n.sinceSeq = 0
		}
		if len(n.parents) == 0 {
			continue
		}
		if src, ok := best[n.key]; ok {
			n.sinceSeq = src.sinceSeq
			capHint := src.n
			if n.bufCap > capHint {
				capHint = n.bufCap
			}
			n.buffer = make([]*inst, 0, capHint)
			for _, buf := range src.bufs {
				for _, in := range buf {
					if e.now-in.minTS > n.window {
						continue
					}
					// A partitioned adopter keeps only instances it owns:
					// every constituent in its bucket. Mixed-bucket
					// instances are dropped by all siblings — they can
					// never complete (see adoptKeep).
					if !e.adoptKeep(in) {
						continue
					}
					cp := e.getInst(len(in.ev))
					copy(cp.ev, in.ev)
					if e.prov && len(in.seq) == len(in.ev) {
						copy(cp.seq, in.seq)
					}
					cp.minTS, cp.maxTS, cp.minSeq = in.minTS, in.maxTS, in.minSeq
					n.buffer = append(n.buffer, cp)
				}
			}
			n.reindex()
			continue
		}
		if n.isLeaf() {
			// Raw events are gone; the leaf restarts at the splice.
			n.sinceSeq = spliceSeq
			continue
		}
		// Backfill: the sub-join was not materialized before, but both
		// children carry buffers (and indexes, settled earlier in build
		// order) — recompute the join once, during the splice pause, probing
		// the right child exactly as a left-side insertion would.
		// Completeness is bounded by the children's.
		n.sinceSeq = n.left.sinceSeq
		if n.right.sinceSeq > n.sinceSeq {
			n.sinceSeq = n.right.sinceSeq
		}
		for _, li := range n.left.buffer {
			for _, ri := range n.candidates(0, li) {
				if merged := e.combine(n, li, ri); merged != nil {
					n.buffer = append(n.buffer, merged)
					e.st.Backfilled++
				}
			}
		}
		n.reindex()
	}
	total := 0
	for _, n := range e.nodes {
		total += len(n.buffer)
	}
	e.nPartial = total
	if cur := e.CurrentPartial(); cur > e.st.PeakPartial {
		e.st.PeakPartial = cur
	}

	// Surviving consumers recover negation buffers and pending matches.
	byName := map[string]*consumer{}
	for _, n := range e.nodes {
		for ci := range n.consumers {
			byName[n.consumers[ci].name] = &n.consumers[ci]
		}
	}
	for _, old := range olds {
		for _, n := range old.nodes {
			for ci := range n.consumers {
				oc := &n.consumers[ci]
				nc := byName[oc.name]
				if nc == nil || !nc.hasNegs() {
					continue
				}
				for pos, buf := range oc.negBufs {
					nc.negBufs[pos] = append(nc.negBufs[pos], buf...)
				}
			}
		}
		for _, pd := range old.pendings {
			if pd.dead {
				continue
			}
			nc := byName[pd.cons.name]
			if nc == nil {
				continue
			}
			if e.partTotal > 1 {
				// A pending match migrates to the one sibling that owns its
				// key: a keyed member's complete match is key-uniform, so
				// the first positive event's bucket decides ownership.
				evs := pd.m.Positions[nc.c.Positives[0]]
				if len(evs) == 0 ||
					PartitionBucket(evs[0], e.partAttr, e.partTotal) != e.partIdx {
					continue
				}
			}
			e.pendings = append(e.pendings, pending{
				cons: nc, m: pd.m, deadline: pd.deadline,
			})
		}
	}

	// Partition siblings buffer negation events ungated (a violator must be
	// visible on every lane), so a family's members carry identical negation
	// buffers and the concatenation above duplicates them. Dedupe by event
	// pointer, preserving first-seen (arrival) order — compact() expires a
	// sorted prefix and relies on it.
	for _, nc := range byName {
		if !nc.hasNegs() {
			continue
		}
		for pos, buf := range nc.negBufs {
			if len(buf) < 2 {
				continue
			}
			seen := make(map[*event.Event]bool, len(buf))
			keep := buf[:0]
			for _, ev := range buf {
				if seen[ev] {
					continue
				}
				seen[ev] = true
				keep = append(keep, ev)
			}
			nc.negBufs[pos] = keep
		}
	}
}

// Describe renders the DAG for logs and debugging: each node with its leaf
// span, consumer count and parent fan-out, roots labelled with their query
// names.
func (e *Engine) Describe() string {
	var b strings.Builder
	for i, n := range e.nodes {
		span := n.leafType
		if !n.isLeaf() {
			types := make([]string, len(n.slots2types()))
			copy(types, n.slots2types())
			span = strings.Join(types, "⋈")
		}
		fmt.Fprintf(&b, "node %d: %s fanout=%d", i, span, len(n.parents))
		if len(n.consumers) > 0 {
			names := make([]string, len(n.consumers))
			for k, c := range n.consumers {
				names[k] = c.name
				if len(c.c.Negs) > 0 {
					names[k] += "¬"
				}
			}
			sort.Strings(names)
			fmt.Fprintf(&b, " roots=[%s]", strings.Join(names, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// slots2types lists the event types slot by slot for diagnostics.
func (n *node) slots2types() []string {
	if n.isLeaf() {
		return []string{n.leafType}
	}
	out := make([]string, n.slots)
	for i, s := range n.leftMap {
		out[s] = n.left.slots2types()[i]
	}
	for i, s := range n.rightMap {
		out[s] = n.right.slots2types()[i]
	}
	return out
}
