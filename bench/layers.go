package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	cep "repro"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/event"
	"repro/internal/filterindex"
	"repro/internal/mqo"
	"repro/internal/nfa"
	"repro/internal/pool"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/tree"
)

// The layer replay pushes the same generated stream through each layer's
// exported functions on one goroutine, the way a Session wires them —
// filterindex verdict, per-lane selection, engine — with a span around
// every call into a layer. It is the Session's data path minus queues,
// locks, telemetry and goroutines, so what it cannot account for is
// session.residual_ns_per_event.

type laneKind int

const (
	kindNFA laneKind = iota
	kindTree
	kindMQO
	numKinds
)

var kindSpan = [numKinds]string{"internal/nfa", "internal/tree", "internal/mqo"}

// lane is one replay engine, the stand-in of a session lane.
type lane struct {
	kind  laneKind
	query int // private lanes: index into instance.all
	sp    *core.SimplePlan
	nfa   *nfa.Engine
	tree  *tree.Engine

	mqo    *mqo.Engine
	group  mqo.Group
	byName map[string]int // mqo: query index by member name

	// The current batch's selection: routed events (private lanes), or
	// event indices with their hit slot lists (shared lanes).
	sel      []*event.Event
	selIdx   []int32
	slots    []int32
	slotOff  []int32
	negSlots int        // shared lanes: mqo.Engine.NegSlotCount
	fromTS   event.Time // first timestamp the lane was live for (cost.pm_ratio)
	dead     bool
}

// layerTotals accumulates the busy time, allocations and counters the
// per-layer metrics are computed from.
type layerTotals struct {
	filterNS int64
	hits     int64
	subs     int

	kindNS     [numKinds]int64
	kindAllocs [numKinds]uint64
	kindEvents [numKinds]int64 // events handed to engines of the kind

	driftNS int64

	mqoStats       mqo.EngineStats // summed over every engine generation
	mqoPeakPartial int
	mqoSharedNodes int
	mqoPoolLive    int64
	treeStats      tree.Stats
	treePoolLive   int64
	nfaStats       nfa.Stats
	created        int64   // all engines
	predicted      float64 // model partial matches over the lanes' live spans
	adoptNS        int64
	adopts         int
	optimizeNS     int64 // initial mqo.Optimize
	planNS         int64
	planCost       float64
	indexBuildNS   int64
	compileNS      int64
	indexUpdateNS  int64
	replayWallNS   int64
	kleeneCapped   int64
}

// replay is the single-goroutine pipeline over one instance.
type replay struct {
	in      *instance
	lanes   []*lane
	mqoQ    map[int]mqo.Query // live shareable queries by index
	idx     *filterindex.Index
	col     *drift.Collector
	digests []digest
	tot     layerTotals
	spans   *spanLog

	hits    []filterindex.Hit
	hitOff  []int
	touched []*lane
	plans   map[int]*core.Plan
}

// allocSample reads the cumulative heap object allocation count without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// planQuery plans query q the way Session.Register does (cep.New): same
// algorithm, strategy and statistics.
func (r *replay) planQuery(q int) (*core.Plan, error) {
	if pl := r.plans[q]; pl != nil {
		return pl, nil
	}
	qc := r.in.all[q]
	st := qc.Stats
	if st == nil {
		st = stats.New()
	}
	t0 := time.Now()
	pl, err := (&core.Planner{Algorithm: algorithmOf(qc), Strategy: qc.Strategy, Alpha: qc.LatencyWeight}).Plan(qc.Pattern, st)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", qc.Name, err)
	}
	r.tot.planNS += int64(time.Since(t0))
	r.tot.planCost += pl.TotalCost
	r.plans[q] = pl
	return pl, nil
}

// newReplay plans every base query, builds the engines and the filter
// index, and times each set-up step by layer.
func newReplay(in *instance, spans *spanLog) (*replay, error) {
	r := &replay{in: in, mqoQ: map[int]mqo.Query{}, spans: spans,
		digests: make([]digest, len(in.all)), plans: map[int]*core.Plan{}}
	firstTS := in.stream[0].TS
	for q := 0; q < in.base; q++ {
		pl, err := r.planQuery(q)
		if err != nil {
			return nil, err
		}
		qc := in.all[q]
		if in.cfg.ShareSubplans && mqo.Eligible(pl, qc.Strategy) {
			r.mqoQ[q] = mqo.Query{Name: qc.Name, SP: pl.Simple[0]}
			continue
		}
		for _, sp := range pl.Simple {
			ln := &lane{query: q, sp: sp, fromTS: firstTS}
			if sp.IsTree() {
				ln.kind = kindTree
				ln.tree, err = tree.New(sp.Compiled, sp.TreeTerms(), tree.Config{Strategy: qc.Strategy, MaxKleeneBase: qc.MaxKleeneBase})
			} else {
				ln.kind = kindNFA
				ln.nfa, err = nfa.New(sp.Compiled, sp.OrderTerms(), nfa.Config{Strategy: qc.Strategy, MaxKleeneBase: qc.MaxKleeneBase})
			}
			if err != nil {
				return nil, fmt.Errorf("engine %s: %w", qc.Name, err)
			}
			r.lanes = append(r.lanes, ln)
		}
	}
	t0 := time.Now()
	shared, err := r.optimize(firstTS)
	if err != nil {
		return nil, err
	}
	r.tot.optimizeNS = int64(time.Since(t0))
	r.lanes = append(r.lanes, shared...)

	// predicate.compile_us: the compile step inside planning, on its own.
	for _, pl := range r.plans {
		for _, sp := range pl.Simple {
			t := time.Now()
			if _, err := predicate.Compile(sp.Compiled.Source, sp.Model.Strategy); err != nil {
				return nil, err
			}
			r.tot.compileNS += int64(time.Since(t))
		}
	}

	subs := r.subs()
	t0 = time.Now()
	r.idx = filterindex.Build(subs, nil)
	r.tot.indexBuildNS = int64(time.Since(t0))
	r.tot.subs = len(subs)
	// filterindex.update_ms: the RCU successor with one dirty type, the unit
	// of work an AddQuery/RemoveQuery pays; median of five.
	var upd []float64
	for i := 0; i < 5 && len(subs) > 0; i++ {
		t := time.Now()
		filterindex.Update(r.idx, subs, nil, map[string]bool{subs[0].Type: true})
		upd = append(upd, float64(time.Since(t)))
	}
	med, _, _ := quartiles(upd)
	r.tot.indexUpdateNS = int64(med)

	if in.cfg.Adaptive != nil {
		var w event.Time
		for _, pl := range r.plans {
			w = max(w, pl.Simple[0].Compiled.Window)
		}
		r.col = drift.NewCollector(4*w, 0)
	}
	return r, nil
}

// optimize builds the shared lanes for the live shareable queries: one
// mqo.Optimize over all of them, singleton DAGs for what it leaves private
// — what Session.buildLanes does.
func (r *replay) optimize(fromTS event.Time) ([]*lane, error) {
	var input []mqo.Query
	byName := map[string]int{}
	for q := range r.in.all { // in query order: the optimizer's input is deterministic
		if mq, ok := r.mqoQ[q]; ok {
			input = append(input, mq)
			byName[mq.Name] = q
		}
	}
	var groups []mqo.Group
	switch {
	case len(input) >= 2:
		res, err := mqo.Optimize(input, mqo.Options{GroupWorkers: r.in.cfg.SharedWorkers, Partitions: r.in.cfg.PartitionWorkers})
		if err != nil {
			return nil, fmt.Errorf("mqo.Optimize: %w", err)
		}
		groups = res.Groups
		for _, name := range res.Private {
			g, err := mqo.Single(r.mqoQ[byName[name]])
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
	case len(input) == 1:
		g, err := mqo.Single(input[0])
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	var out []*lane
	for _, g := range groups {
		out = append(out, &lane{kind: kindMQO, mqo: g.Engine, group: g, byName: byName, negSlots: g.Engine.NegSlotCount(), fromTS: fromTS})
	}
	return out, nil
}

// subs declares every live lane's intakes to the filter index, as
// Session.rebuildIndexLocked does.
func (r *replay) subs() []filterindex.Sub {
	var subs []filterindex.Sub
	full := r.in.cfg.FilterIndex
	for i, ln := range r.lanes {
		if ln.dead {
			continue
		}
		if ln.kind == kindMQO {
			for _, es := range ln.mqo.Subscriptions() {
				subs = append(subs, filterindex.Sub{Lane: i, Slot: es.Slot, Type: es.Type, Conds: es.Conds, Residual: es.Residual})
			}
			continue
		}
		c := ln.sp.Compiled
		for pos := 0; pos < c.N; pos++ {
			sub := filterindex.Sub{Lane: i, Slot: -1, Type: c.Types[pos]}
			if full {
				for _, u := range c.Preds.Unaries(pos) {
					if u.HasCond {
						sub.Conds = append(sub.Conds, u.Cond)
					} else {
						sub.Residual = append(sub.Residual, u.Fn)
					}
				}
			}
			subs = append(subs, sub)
		}
	}
	return subs
}

// retire folds a finished engine's counters into the totals and releases it.
func (r *replay) retire(ln *lane, flush bool, lastTS event.Time) {
	span := float64(lastTS - ln.fromTS)
	switch ln.kind {
	case kindNFA:
		if flush {
			r.fold(ln.query, ln.nfa.Flush())
		}
		st := ln.nfa.Stats()
		r.tot.nfaStats.Created += st.Created
		r.tot.nfaStats.PeakPartial += st.PeakPartial
		r.tot.nfaStats.PeakBuffered += st.PeakBuffered
		r.tot.kleeneCapped += st.KleeneCapped
		r.tot.created += st.Created
		r.tot.predicted += ln.sp.Cost * span / float64(ln.sp.Compiled.Window)
	case kindTree:
		if flush {
			r.fold(ln.query, ln.tree.Flush())
		}
		st := ln.tree.Stats()
		r.tot.treeStats.Created += st.Created
		r.tot.treeStats.PeakPartial += st.PeakPartial
		r.tot.treeStats.PeakBuffered += st.PeakBuffered
		r.tot.kleeneCapped += st.KleeneCapped
		r.tot.created += st.Created
		r.tot.predicted += ln.sp.Cost * span / float64(ln.sp.Compiled.Window)
		ln.tree.Close()
		r.tot.treePoolLive += ln.tree.PoolStats().Live()
	case kindMQO:
		if flush {
			r.foldTagged(ln, ln.mqo.Flush())
		}
		st := ln.mqo.Stats()
		r.tot.mqoStats.Created += st.Created
		r.tot.mqoStats.Probes += st.Probes
		r.tot.created += st.Created
		var window event.Time
		for q := range r.mqoQ {
			window = max(window, r.plans[q].Simple[0].Compiled.Window)
		}
		if window > 0 {
			r.tot.predicted += ln.group.SharedCost * span / float64(window)
		}
		ln.mqo.Close()
		r.tot.mqoPoolLive += ln.mqo.PoolStats().Live()
	}
	ln.dead = true
}

func (r *replay) fold(q int, ms []*cep.Match) {
	d := &r.digests[q]
	for _, m := range ms {
		d.N++
		d.H += matchHash(m)
	}
}

func (r *replay) foldTagged(ln *lane, tms []mqo.Tagged) {
	for _, tm := range tms {
		d := &r.digests[ln.byName[tm.Query]]
		d.N++
		d.H += matchHash(tm.M)
	}
}

// splice applies one churn operation: the shareable query set changes, the
// shared lanes are re-optimized as a whole and the successors adopt the
// predecessors' buffered state (mqo.Engine.AdoptFrom), then the index is
// rebuilt for the dirty types.
func (r *replay) splice(op churnOp, nextTS event.Time) error {
	if op.add {
		pl, err := r.planQuery(op.query)
		if err != nil {
			return err
		}
		qc := r.in.all[op.query]
		if !r.in.cfg.ShareSubplans || !mqo.Eligible(pl, qc.Strategy) {
			return fmt.Errorf("replay: churn query %s is not shareable", qc.Name)
		}
		r.mqoQ[op.query] = mqo.Query{Name: qc.Name, SP: pl.Simple[0], Since: uint64(op.at) + 1}
	} else {
		if _, ok := r.mqoQ[op.query]; !ok {
			return fmt.Errorf("replay: churn removes %s, which is not a live shareable query", r.in.all[op.query].Name)
		}
		delete(r.mqoQ, op.query)
	}
	var olds []*mqo.Engine
	var oldLanes []*lane
	peak := 0
	for _, ln := range r.lanes {
		if ln.kind == kindMQO && !ln.dead {
			olds = append(olds, ln.mqo)
			oldLanes = append(oldLanes, ln)
			peak += ln.mqo.Stats().PeakPartial
		}
	}
	r.tot.mqoPeakPartial = max(r.tot.mqoPeakPartial, peak)
	succ, err := r.optimize(nextTS)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, ln := range succ {
		ln.mqo.AdoptFrom(olds, uint64(op.at)+1)
	}
	d := time.Since(t0)
	r.tot.adoptNS += int64(d)
	r.tot.adopts++
	r.spans.addLoose("internal/mqo.AdoptFrom", t0, d, op.at/batchSize)
	for _, ln := range oldLanes {
		r.retire(ln, false, nextTS)
	}
	r.lanes = append(r.lanes, succ...)
	r.idx = filterindex.Update(r.idx, r.subs(), nil, nil)
	return nil
}

// sortHits orders one event's hits by lane, then slot — the order
// mqo.Engine.ProcessBatchSelected wants its slot lists in. An event has a
// handful of hits, so insertion sort.
func sortHits(h []filterindex.Hit) {
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && (h[j].Lane < h[j-1].Lane ||
			(h[j].Lane == h[j-1].Lane && h[j].Slot < h[j-1].Slot)); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// route runs the batch through internal/filterindex (one verdict per
// event) and turns the verdicts into per-lane selections the way
// Session.routeBatch does: a private lane gets its routed events, a shared
// lane fed through the full index gets event indices plus the hit slot
// lists (a key-partitioned lane only for the buckets it owns, negation
// intakes excepted).
func (r *replay) route(i int, evs []*event.Event, raw bool) {
	b := i / batchSize
	r.hits, r.hitOff = r.hits[:0], r.hitOff[:0]
	t0 := time.Now()
	for _, e := range evs {
		r.hits = r.idx.AppendHits(e, r.hits)
		r.hitOff = append(r.hitOff, len(r.hits))
	}
	d := time.Since(t0)
	r.tot.filterNS += int64(d)
	r.tot.hits += int64(len(r.hits))
	r.spans.add("internal/filterindex", t0, d, b, raw)

	t0 = time.Now()
	for _, ln := range r.touched {
		ln.sel, ln.selIdx, ln.slots, ln.slotOff = ln.sel[:0], ln.selIdx[:0], ln.slots[:0], ln.slotOff[:0]
	}
	r.touched = r.touched[:0]
	lo := 0
	for k, e := range evs {
		hits := r.hits[lo:r.hitOff[k]]
		lo = r.hitOff[k]
		sortHits(hits)
		for x := 0; x < len(hits); {
			ln := r.lanes[hits[x].Lane]
			y := x + 1
			for y < len(hits) && hits[y].Lane == hits[x].Lane {
				y++
			}
			keep := y
			if ln.kind == kindMQO && ln.group.Partitions > 1 &&
				mqo.PartitionBucket(e, ln.group.PartitionAttr, ln.group.Partitions) != ln.group.Partition {
				for keep = x; keep < y && int(hits[keep].Slot) < ln.negSlots; keep++ {
				}
			}
			if keep > x {
				if len(ln.sel)+len(ln.selIdx) == 0 {
					r.touched = append(r.touched, ln)
				}
				if ln.kind == kindMQO {
					ln.selIdx = append(ln.selIdx, int32(k))
					ln.slotOff = append(ln.slotOff, int32(len(ln.slots)))
					for _, h := range hits[x:keep] {
						ln.slots = append(ln.slots, h.Slot)
					}
				} else {
					ln.sel = append(ln.sel, e)
				}
			}
			x = y
		}
	}
	r.spans.add("bench/select", t0, time.Since(t0), b, raw)
}

// engines feeds the routed batch to every live engine of one kind and
// folds the matches into the digests.
func (r *replay) engines(kind laneKind, i int, evs []*event.Event, raw bool) {
	a0 := allocObjects()
	t0 := time.Now()
	n := int64(0)
	switch {
	case kind == kindMQO && !r.in.cfg.FilterIndex:
		// Without the full index a Session broadcasts to its shared lanes.
		for _, ln := range r.lanes {
			if ln.kind == kindMQO && !ln.dead {
				r.foldTagged(ln, ln.mqo.ProcessBatch(evs, uint64(i)+1))
				n += int64(len(evs))
			}
		}
	default:
		for _, ln := range r.touched {
			if ln.kind != kind {
				continue
			}
			switch kind {
			case kindMQO:
				ln.slotOff = append(ln.slotOff, int32(len(ln.slots)))
				r.foldTagged(ln, ln.mqo.ProcessBatchSelected(evs, uint64(i)+1, ln.selIdx, ln.slotOff, ln.slots))
				n += int64(len(ln.selIdx))
			case kindTree:
				r.fold(ln.query, ln.tree.ProcessBatch(ln.sel))
				n += int64(len(ln.sel))
			default:
				for _, e := range ln.sel {
					r.fold(ln.query, ln.nfa.Process(e))
				}
				n += int64(len(ln.sel))
			}
		}
	}
	if n == 0 {
		return
	}
	d := time.Since(t0)
	r.tot.kindNS[kind] += int64(d)
	r.tot.kindAllocs[kind] += allocObjects() - a0
	r.tot.kindEvents[kind] += n
	r.spans.add(kindSpan[kind], t0, d, i/batchSize, raw)
}

// batch pushes stream[i:end] through the pipeline.
func (r *replay) batch(i, end int) {
	evs := r.in.stream[i:end]
	b := i / batchSize
	raw := r.spans.sampled(b)
	tBatch := time.Now()
	r.route(i, evs, raw)
	for kind := laneKind(0); kind < numKinds; kind++ {
		r.engines(kind, i, evs, raw)
	}
	if r.col != nil {
		t0 := time.Now()
		r.col.ObserveBatch(evs)
		d := time.Since(t0)
		r.tot.driftNS += int64(d)
		r.spans.add("internal/drift", t0, d, b, raw)
	}
	r.spans.addRoot("batch", tBatch, time.Since(tBatch), b, raw)
}

// run replays the first n events (with the churn operations) and flushes.
func (r *replay) run(n int) error {
	start := time.Now()
	ops := r.in.ops
	for i := 0; i < n; i += batchSize {
		for len(ops) > 0 && ops[0].at <= i {
			if err := r.splice(ops[0], r.in.stream[i].TS); err != nil {
				return err
			}
			ops = ops[1:]
		}
		r.batch(i, min(i+batchSize, n))
	}
	r.finish(r.in.stream[n-1].TS)
	r.tot.replayWallNS = int64(time.Since(start))
	return nil
}

// finish flushes and closes every live engine and folds its counters.
func (r *replay) finish(lastTS event.Time) {
	peak := 0
	for _, ln := range r.lanes {
		if ln.dead {
			continue
		}
		if ln.kind == kindMQO {
			peak += ln.mqo.Stats().PeakPartial
			r.tot.mqoSharedNodes += ln.group.SharedNodes
		}
		r.retire(ln, true, lastTS)
	}
	r.tot.mqoPeakPartial = max(r.tot.mqoPeakPartial, peak)
}

// pairBench times predicate.Set.CheckPair over event pairs sampled from
// the stream, for every query position pair that carries a predicate, and
// returns the mean ns per call (0 when no query has a pairwise predicate).
func (r *replay) pairBench(minCalls int) float64 {
	const sample = 64
	byType := map[string][]*event.Event{}
	for _, e := range r.in.stream[:min(len(r.in.stream), historyEvents)] {
		if len(byType[e.Type]) < sample {
			byType[e.Type] = append(byType[e.Type], e)
		}
	}
	type site struct {
		set    *predicate.Set
		i, j   int
		ei, ej []*event.Event
	}
	var sites []site
	for q := 0; q < len(r.in.all) && len(sites) < 64; q++ {
		pl := r.plans[q]
		if pl == nil {
			continue
		}
		for _, sp := range pl.Simple {
			c := sp.Compiled
			for i := 0; i < c.N; i++ {
				for j := i + 1; j < c.N; j++ {
					ei, ej := byType[c.Types[i]], byType[c.Types[j]]
					if c.Preds.PairCount(i, j) > 0 && len(ei) > 0 && len(ej) > 0 {
						sites = append(sites, site{c.Preds, i, j, ei, ej})
					}
				}
			}
		}
	}
	if len(sites) == 0 {
		return 0
	}
	calls, pass := 0, 0
	t0 := time.Now()
	for calls < minCalls {
		for _, s := range sites {
			for k, a := range s.ei {
				if s.set.CheckPair(s.i, a, s.j, s.ej[k%len(s.ej)]) {
					pass++
				}
			}
			calls += len(s.ei)
		}
	}
	pairSink = pass
	return float64(time.Since(t0)) / float64(calls)
}

var pairSink int

// poolItem is the queue unit of the pool microbenchmark, stamped at send.
type poolItem struct{ sent time.Duration }

// poolResult is what poolBench measured.
type poolResult struct {
	sendNS, p50, p99, drainUS float64
}

// poolBench measures internal/pool on its own: lanes workers with a no-op
// Work, items stamped at send time (the Hooks queue-wait contract) and sent
// round-robin from this goroutine.
func poolBench(lanes, items, queueLen int) (poolResult, error) {
	var h hist
	base := time.Now()
	p := pool.New(pool.Hooks[poolItem]{Work: func(_ int, it poolItem) {
		h.record(int64(time.Since(base) - it.sent))
	}})
	for i := 0; i < lanes; i++ {
		p.AddLane(queueLen)
	}
	if err := p.Start(); err != nil {
		return poolResult{}, err
	}
	t0 := time.Now()
	for i := 0; i < items; i++ {
		if err := p.Send(i%lanes, poolItem{sent: time.Since(base)}); err != nil {
			return poolResult{}, err
		}
	}
	send := time.Since(t0)
	t0 = time.Now()
	if err := p.Drain(); err != nil {
		return poolResult{}, err
	}
	drain := time.Since(t0)
	if err := p.Shutdown(); err != nil {
		return poolResult{}, err
	}
	return poolResult{
		sendNS: float64(send) / float64(items),
		p50:    h.quantile(0.50), p99: h.quantile(0.99),
		drainUS: float64(drain) / 1e3,
	}, nil
}
