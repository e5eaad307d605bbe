package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Rep plan of one end-to-end pass at the committed run length (-seconds
// 20): a warm-up on a third of the stream, satReps closed-loop reps over
// the whole stream (~3 s each on the seed), pacedReps open-loop reps of
// pacedSeconds at the committed rate, one untimed heap rep on a quarter-
// length stream, and a series of at least minSetups set-up-only session
// builds.
const (
	satReps      = 3
	pacedReps    = 3
	pacedSeconds = 3.0
	minSetups    = 9
	// A saturation rep stops feeding after this multiple of its planned
	// duration, so a slow machine or a slow commit cannot run into the
	// driver's time cap; throughput is then taken over what was fed.
	deadlineFactor = 3
	// repSeconds is the planned duration of a saturation rep at the
	// committed run length.
	repSeconds = 3.0
)

// pacedEvents is the length of one open-loop rep.
func (c runConfig) pacedEvents(sp *spec, n int, seconds float64) int {
	return min(n, max(int(sp.pacedRate*seconds*c.scale())/batchSize, 4)*batchSize)
}

// runEndToEnd measures the end-to-end metrics of one workload through the
// public Session API.
func runEndToEnd(sp *spec, c runConfig) (*passResult, error) {
	p := &passResult{Metrics: map[string]metricValue{}}
	chk, err := check(sp, c.seed)
	if err != nil {
		return nil, err
	}
	p.fail(chk.attempted, chk.failed, chk.msgs...)

	// The heap rep runs on its own quarter-length stream, before the long
	// one exists: each of its checkpoints is a full GC, whose cost would
	// otherwise be marking the long stream sixteen times over.
	in, err := sp.build(c.seed, c.streamEvents(sp)/4)
	if err != nil {
		return nil, err
	}
	heap, err := in.run(repOpts{heap: true})
	if err != nil {
		return nil, err
	}
	p.set(endToEndMetrics, "live_heap_peak_mb", heapPeakMB(heap.heap))

	if in, err = sp.build(c.seed, c.streamEvents(sp)); err != nil {
		return nil, err
	}
	n := len(in.stream)
	reps, paced := satReps, pacedReps
	if c.short {
		reps, paced = 1, 1
	}
	account := func(r *repResult) { p.fail(r.batches, r.errs+r.late) }

	account(heap)
	warm, err := in.run(repOpts{events: n / 3})
	if err != nil {
		return nil, err
	}
	account(warm)

	// Saturation and paced reps alternate (S P S P S P), so the samples of
	// each metric are spread over the whole run and not taken back to back.
	// Three paced reps, not two: about one paced rep in fifteen falls into a
	// backlog it does not leave (churn_all), and a median of three drops it.
	var thr, cpu, allocs, p50 []float64
	var first *repResult
	for i := 0; i < reps; i++ {
		r, err := in.run(repOpts{deadline: time.Duration(deadlineFactor * repSeconds * c.scale() * float64(time.Second))})
		if err != nil {
			return nil, err
		}
		account(r)
		ev := float64(r.events)
		thr = append(thr, ev/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/ev)
		allocs = append(allocs, float64(r.mallocs)/ev)
		switch {
		case r.events < n:
			p.Notes = append(p.Notes, fmt.Sprintf("saturation rep %d hit its deadline after %d of %d events", i, r.events, n))
		case first == nil:
			first = r
		default:
			// Same inputs, same match counts: every complete rep must agree.
			bad := 0
			for q := range r.digests {
				if r.digests[q].N != first.digests[q].N {
					bad++
				}
			}
			p.fail(len(r.digests), bad)
			if bad > 0 {
				p.Notes = append(p.Notes, fmt.Sprintf("saturation rep %d: %d queries changed their match count between reps", i, bad))
			}
		}
		if i >= paced {
			continue
		}
		r, err = in.run(repOpts{pacedRate: sp.pacedRate, events: c.pacedEvents(sp, n, pacedSeconds)})
		if err != nil {
			return nil, err
		}
		account(r)
		if r.lat.count() < 1000 && !c.short {
			p.Notes = append(p.Notes, fmt.Sprintf("paced rep %d sampled only %d matches", i, r.lat.count()))
		}
		p50 = append(p50, r.lat.quantile(0.50)/1e3)
	}
	p.set(endToEndMetrics, "throughput_eps", thr...)
	p.set(endToEndMetrics, "cpu_us_per_event", cpu...)
	p.set(endToEndMetrics, "allocs_per_event", allocs...)
	p.set(endToEndMetrics, "detect_latency_p50_us", p50...)

	// Set-up: a series of session builds of its own, back to back after one
	// GC, so that every sample is taken in the same state (the builds inside
	// the reps follow a forced GC and form a second, slower population). At
	// least minSetups samples; workloads that set up in microseconds get
	// more, they are cheap and nine such samples are not steady.
	var setups []float64
	runtime.GC()
	for total := 0.0; len(setups) < minSetups || (total < 0.25 && len(setups) < 256); {
		d, err := in.timeSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		total += d.Seconds()
	}
	p.set(endToEndMetrics, "setup_s", setups...)
	p.Correct = p.Failed == 0
	return p, nil
}

// heapPeakMB is the mean of the four highest checkpoints: the peak region
// of the session's live heap. A single maximum is an extreme value and
// differs by ten percent from seed to seed on bursty workloads.
func heapPeakMB(checkpoints []uint64) float64 {
	s := append([]uint64(nil), checkpoints...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	s = s[:min(len(s), 4)]
	var sum float64
	for _, h := range s {
		sum += float64(h)
	}
	return sum / float64(max(len(s), 1)) / (1 << 20)
}

// wants reports whether the per-layer pass should measure the layer.
func (c runConfig) wants(layer string) bool { return c.layer == "" || c.layer == layer }

// runLayers takes the per-layer metrics of one workload: an untraced and an
// instrumented Session rep for the session.* numbers, then the
// single-goroutine replay of the same stream through every layer, whose
// match digests must equal the Session's.
func runLayers(sp *spec, c runConfig) (*passResult, error) {
	p := &passResult{Metrics: map[string]metricValue{}}
	set := func(name string, v float64) { p.set(perLayerMetrics, name, v) }
	in, err := sp.build(c.seed, c.streamEvents(sp))
	if err != nil {
		return nil, err
	}
	n := len(in.stream)
	events := float64(n)

	// Session reps: warm-up, one untraced, one instrumented (per-batch
	// submit clock, digests in the sinks, Metrics snapshot).
	if _, err := in.run(repOpts{events: n / 3}); err != nil {
		return nil, err
	}
	plain, err := in.run(repOpts{})
	if err != nil {
		return nil, err
	}
	traced, err := in.run(repOpts{digest: true, metrics: true})
	if err != nil {
		return nil, err
	}
	p.fail(plain.batches+traced.batches, plain.errs+traced.errs)
	sm := traced.metrics
	if c.wants("session") {
		set("session.submit_ns_per_event", float64(traced.submit.Nanoseconds())/events)
		set("session.flush_ms", float64(traced.flush.Nanoseconds())/1e6)
		set("session.matches_per_event", float64(traced.matches())/events)
		set("session.route_drop_frac", float64(sm.EventsDropped)/float64(max(sm.EventsSubmitted, 1)))
		set("session.stalls_per_kevent", float64(sm.Stalls)/events*1e3)
		set("session.lanes", float64(sm.LiveLanes))
		set("session.items_per_event", float64(sm.ItemsProcessed)/events)
		var splice []float64
		for _, d := range traced.splices {
			splice = append(splice, float64(d.Nanoseconds())/1e6)
		}
		sort.Float64s(splice)
		med, _, _ := quartiles(splice)
		set("session.splice_ms_p50", med)
		if len(splice) > 0 {
			set("session.splice_ms_max", splice[len(splice)-1])
		} else {
			set("session.splice_ms_max", 0)
		}
		pr, err := in.run(repOpts{pacedRate: sp.pacedRate, events: c.pacedEvents(sp, n, pacedSeconds/2)})
		if err != nil {
			return nil, err
		}
		p.fail(pr.batches, pr.errs+pr.late)
		set("session.paced_lag_p99_us", pr.lag.quantile(0.99)/1e3)
		set("session.detect_latency_p99_us", pr.lat.quantile(0.99)/1e3)
	}

	// Layer replay.
	spans := newSpanLog()
	r, err := newReplay(in, spans)
	if err != nil {
		return nil, err
	}
	if err := r.run(n); err != nil {
		return nil, err
	}
	bad, msgs := in.diffDigests("layer replay vs session", r.digests, traced.digests, nil)
	p.fail(len(r.digests), bad, msgs...)
	t := &r.tot
	if t.mqoPoolLive != 0 || t.treePoolLive != 0 {
		p.fail(1, 1, fmt.Sprintf("engine instance pools leak after Close: mqo %d, tree %d", t.mqoPoolLive, t.treePoolLive))
	}
	perEvent := func(v float64) float64 { return v / events }
	if c.wants("filterindex") {
		set("filterindex.match_ns_per_event", perEvent(float64(t.filterNS)))
		set("filterindex.hits_per_event", perEvent(float64(t.hits)))
		set("filterindex.hit_ratio", float64(t.hits)/(events*float64(max(t.subs, 1))))
		set("filterindex.build_ms", float64(t.indexBuildNS)/1e6)
		set("filterindex.update_ms", float64(t.indexUpdateNS)/1e6)
	}
	if c.wants("mqo") {
		set("mqo.optimize_ms", float64(t.optimizeNS)/1e6)
		set("mqo.engine_ns_per_event", perEvent(float64(t.kindNS[kindMQO])))
		set("mqo.probes_per_event", perEvent(float64(t.mqoStats.Probes)))
		set("mqo.created_per_event", perEvent(float64(t.mqoStats.Created)))
		set("mqo.probe_yield", float64(t.mqoStats.Created)/float64(max(t.mqoStats.Probes, 1)))
		set("mqo.peak_partial", float64(t.mqoPeakPartial))
		set("mqo.allocs_per_event", perEvent(float64(t.kindAllocs[kindMQO])))
		set("mqo.shared_nodes", float64(t.mqoSharedNodes))
		set("mqo.adopt_ms", float64(t.adoptNS)/1e6/float64(max(t.adopts, 1)))
		set("mqo.pool_live_after_close", float64(t.mqoPoolLive))
	}
	if c.wants("tree") {
		set("tree.engine_ns_per_event", perEvent(float64(t.kindNS[kindTree])))
		set("tree.created_per_event", perEvent(float64(t.treeStats.Created)))
		set("tree.peak_partial", float64(t.treeStats.PeakPartial))
		set("tree.peak_buffered", float64(t.treeStats.PeakBuffered))
		set("tree.allocs_per_event", perEvent(float64(t.kindAllocs[kindTree])))
	}
	if c.wants("nfa") {
		set("nfa.engine_ns_per_event", perEvent(float64(t.kindNS[kindNFA])))
		set("nfa.created_per_event", perEvent(float64(t.nfaStats.Created)))
		set("nfa.peak_partial", float64(t.nfaStats.PeakPartial))
	}
	if c.wants("predicate") {
		set("predicate.compile_us", float64(t.compileNS)/1e3)
		set("predicate.pair_ns", r.pairBench(200_000))
	}
	if c.wants("core") {
		set("core.plan_ms", float64(t.planNS)/1e6)
		set("core.plan_cost", t.planCost)
		ratio := 0.0
		if t.predicted > 0 {
			ratio = float64(t.created) / t.predicted
		}
		set("cost.pm_ratio", ratio)
	}
	if c.wants("drift") {
		set("drift.observe_ns_per_event", perEvent(float64(t.driftNS)))
	}
	var pr poolResult
	if c.wants("pool") || c.wants("session") {
		items := 200_000
		if c.short {
			items = 20_000
		}
		if pr, err = poolBench(max(sm.LiveLanes, 1), items, max(in.cfg.QueueLen, 256)); err != nil {
			return nil, err
		}
	}
	if c.wants("pool") {
		set("pool.send_ns_per_item", pr.sendNS)
		set("pool.handoff_ns_p50", pr.p50)
		set("pool.handoff_ns_p99", pr.p99)
		set("pool.drain_us", pr.drainUS)
	}
	if c.wants("session") {
		// Residual: what the Session spends per event beyond the layers the
		// replay accounts for — routing glue, queues, locks, emit, telemetry.
		itemsPerEvent := float64(sm.ItemsProcessed) / events
		layers := perEvent(float64(t.filterNS+t.kindNS[kindNFA]+t.kindNS[kindTree]+t.kindNS[kindMQO]+t.driftNS)) + pr.sendNS*itemsPerEvent
		set("session.residual_ns_per_event", float64(plain.cpu.Nanoseconds())/float64(plain.events)-layers)
		set("session.replay_overhead_frac", float64(t.replayWallNS)/float64(plain.wall.Nanoseconds()))
	}
	if t.kleeneCapped > 0 {
		p.Notes = append(p.Notes, fmt.Sprintf("Kleene base cap applied %d times", t.kleeneCapped))
	}
	if err := spans.write(filepath.Join(c.outDir, "trace_"+sp.name+".json"), sp.name); err != nil {
		return nil, err
	}
	p.Correct = p.Failed == 0
	return p, nil
}
