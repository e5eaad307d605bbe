package cep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filterindex"
	"repro/internal/mqo"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// QueryConfig declares one named query — pattern, statistics and tuning —
// as a plain struct, the config-first alternative to the functional-option
// constructors for the common path. Zero values select the defaults
// (AlgGreedy, SkipTillAnyMatch, no latency weighting).
type QueryConfig struct {
	// Name identifies the query inside a Session; match deliveries are
	// tagged with it. Required when registering on a Session.
	Name string
	// Pattern is the parsed pattern AST. Exactly one of Pattern, Query and
	// Source must be set.
	Pattern *Pattern
	// Query is the SASE-style textual pattern, parsed (and, when Registry
	// is set, validated) at construction — the string-first alternative to
	// building a *Pattern by hand.
	Query string
	// Source is the original name of the Query field, retained for
	// compatibility; new code should set Query.
	Source string
	// Registry optionally validates Query against declared schemas.
	Registry *Registry
	// Stats supplies the arrival rates and selectivities the planner
	// minimises over; nil plans under neutral defaults.
	Stats *Stats
	// Algorithm is the plan-generation algorithm (default AlgGreedy).
	Algorithm string
	// Strategy is the event selection strategy (default SkipTillAnyMatch).
	Strategy Strategy
	// LatencyWeight is α of the hybrid cost model Cost_trpt + α·Cost_lat.
	LatencyWeight float64
	// MaxKleeneBase bounds Kleene-closure power-set enumeration (0 keeps
	// the engine default).
	MaxKleeneBase int
	// OnMatch, when non-nil, receives this query's matches as they are
	// emitted instead of the Session accumulating (or forwarding) them.
	// Inside a Session it runs on the query's worker goroutine, in stream
	// order; in a standalone NewFromConfig runtime it is installed as the
	// engine's WithOnMatch callback.
	OnMatch func(*Match)
}

// pattern resolves the Pattern/Query/Source fields.
func (qc QueryConfig) pattern() (*Pattern, error) {
	src := qc.Query
	switch {
	case qc.Query != "" && qc.Source != "":
		return nil, fmt.Errorf("cep: query %q sets both Query and Source (Source is the deprecated alias)", qc.Name)
	case qc.Source != "":
		src = qc.Source
	}
	switch {
	case qc.Pattern != nil && src != "":
		return nil, fmt.Errorf("cep: query %q sets both Pattern and Query", qc.Name)
	case qc.Pattern != nil:
		return qc.Pattern, nil
	case src != "":
		if qc.Registry != nil {
			return ParsePatternWith(src, qc.Registry)
		}
		return ParsePattern(src)
	default:
		return nil, fmt.Errorf("cep: query %q has neither Pattern nor Query", qc.Name)
	}
}

// options lowers the declarative fields onto the functional options of New.
func (qc QueryConfig) options() []Option {
	var opts []Option
	if qc.Algorithm != "" {
		opts = append(opts, WithAlgorithm(qc.Algorithm))
	}
	if qc.Strategy != 0 {
		opts = append(opts, WithStrategy(qc.Strategy))
	}
	if qc.LatencyWeight != 0 {
		opts = append(opts, WithLatencyWeight(qc.LatencyWeight))
	}
	if qc.MaxKleeneBase != 0 {
		opts = append(opts, WithMaxKleeneBase(qc.MaxKleeneBase))
	}
	return opts
}

// NewFromConfig plans a single-query Runtime from a declarative QueryConfig
// — the config-first equivalent of New with functional options.
func NewFromConfig(qc QueryConfig) (*Runtime, error) {
	p, err := qc.pattern()
	if err != nil {
		return nil, err
	}
	opts := qc.options()
	if qc.OnMatch != nil {
		opts = append(opts, WithOnMatch(qc.OnMatch))
	}
	return New(p, qc.Stats, opts...)
}

// MatchSink receives matches tagged with the name of the query that emitted
// them. Sinks installed on a Session run on the worker goroutine of the
// emitting query: calls for one query are sequential and in stream order,
// but calls for different queries run concurrently, so a shared sink must
// be safe for concurrent use. A sink must not call back into the Session
// (Submit, Drain, Flush, Close, AddQuery, RemoveQuery) — the worker is
// blocked inside the callback, so waiting on its own queue deadlocks.
type MatchSink func(query string, m *Match)

// SessionConfig configures a Session. The zero value selects the defaults.
type SessionConfig struct {
	// QueueLen is the per-query bounded input queue capacity (default 256).
	// A full queue blocks Submit/Run until the query catches up — the
	// back-pressure bound on how far the feed can run ahead of the slowest
	// query.
	QueueLen int
	// OnMatch, when non-nil, receives every match of every query that does
	// not install its own QueryConfig.OnMatch. See MatchSink for the
	// concurrency rules.
	OnMatch MatchSink
	// ShareSubplans enables the multi-query shared-subplan optimizer
	// (internal/mqo): when the session starts, the compiled tree plans of
	// the registered queries are canonicalized, common sub-joins are
	// detected across queries, and groups that the cost model predicts to
	// benefit are evaluated on a shared evaluation DAG in which each common
	// sub-join buffer is computed once and its partial matches fan out to
	// every consuming query's residual plan. The per-query match sets are
	// identical to unshared evaluation.
	//
	// Sharing applies to queries registered with Register or AddQuery (not
	// RegisterDetector) that compile to a single conjunctive or sequence
	// disjunct without Kleene closure under SkipTillAnyMatch — the strategy
	// whose match sets are provably plan-independent. Negation patterns
	// participate through their positive core: the shared DAG computes the
	// positive sub-joins and each consuming root applies its own negation
	// checks. All other queries keep their private engines and per-query
	// workers.
	//
	// Sharing is dynamic: AddQuery and RemoveQuery on a running session
	// incrementally re-optimize just the affected sharing component,
	// draining and splicing its evaluation DAG without dropping or
	// duplicating the surviving queries' matches.
	ShareSubplans bool
	// SharedWorkers partitions a sharing component's root fan-out across up
	// to this many worker lanes (cost-balanced), so one hot component no
	// longer serializes on a single goroutine. Sub-joins shared across
	// lanes are evaluated once per lane — the split trades some
	// recomputation for parallelism. 0 or 1 keeps one lane per component.
	SharedWorkers int
	// PartitionWorkers hash-partitions each sharing component that carries
	// an equi-join key across this many worker lanes: when every member of a
	// component chains its positive positions together with equality
	// predicates on one attribute (`a.k = b.k AND b.k = c.k`), events are
	// hash-routed by that attribute's value so each lane owns a disjoint
	// slice of every shared sub-join's buffers. Each shared node is computed
	// once per partition — unlike the SharedWorkers split there is no
	// cross-lane recomputation — and each lane's join probing shrinks with
	// its buffer share, so the component's total work drops toward 1/P of
	// the single-lane cost on top of the parallelism. Match sets are
	// identical to single-lane evaluation; the arrival ORDER of one query's
	// matches across partition lanes is unspecified (match sets, not match
	// sequences, are the invariant). Components with no qualifying key fall
	// back to the SharedWorkers split. PartitionWorkers supersedes
	// SharedWorkers for keyed components. 0 or 1 disables partitioning.
	PartitionWorkers int
	// Adaptive enables statistics-drift monitoring and live re-optimization:
	// an online collector shadows the feed, and components whose running
	// plans drift too far from what fresh measurements would choose are
	// re-planned and spliced without dropping or duplicating matches. See
	// AdaptiveSessionConfig; nil disables adaptivity.
	Adaptive *AdaptiveSessionConfig
	// StatsPath, when non-empty, wires statistics persistence into the
	// session lifecycle: measured statistics are loaded from the file at
	// construction and seed the planning of every query registered without
	// its own QueryConfig.Stats, and the statistics measured during the run
	// are saved back on Flush/Close — a restarted session plans from
	// yesterday's measurements instead of neutral priors. A missing file is
	// not an error (first run); an unreadable one surfaces at registration.
	StatsPath string
	// FilterIndex enables the ingress discrimination network
	// (internal/filterindex): every lane registers its event intakes — type
	// plus constant unary predicates — and each submitted event (or batch)
	// is evaluated ONCE against the two-stage index (type dispatch, then
	// hashed equality / sorted range constraint tables), then routed only
	// to the lanes it can possibly feed, instead of being broadcast to all
	// of them and re-filtered per lane. Shared DAG lanes additionally skip
	// re-running their leaf unary filters: the index verdict addresses the
	// exact leaf and negation intakes the event belongs to. Match sets are
	// identical to broadcast evaluation. The index survives query churn
	// (AddQuery/RemoveQuery rebuild only the affected types' shards behind
	// an atomic pointer, so the feed path stays lock-free) and feeds
	// measured per-constraint hit rates to the adaptivity collector, so
	// drift re-planning prices post-index rates. See Session.IndexReport.
	//
	// Even with FilterIndex off, private (non-shared) query lanes get the
	// stage-1 fast path: events whose type appears nowhere in a lane's
	// pattern are not enqueued to it.
	FilterIndex bool
	// Telemetry tunes the built-in instrumentation (hot-path counters,
	// sampled detection-latency histograms, back-pressure gauges, the
	// control-plane journal) behind Session.Metrics and MetricsHandler.
	// nil enables telemetry with defaults; see TelemetryConfig.
	Telemetry *TelemetryConfig
	// Trace enables the sampled end-to-end event-tracing and
	// match-provenance layer behind Session.Traces, match.Prov and
	// /debug/traces.json. nil (the default) disables it entirely; see
	// TraceConfig.
	Trace *TraceConfig
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.QueueLen <= 0 {
		c.QueueLen = 256
	}
	return c
}

// sessionItem is one queue unit: a single event or a whole batch, plus the
// stream sequence number — the watermark the shared lanes use so queries
// added mid-stream never observe pre-registration events. A batch item
// carries the sequence number of its first event (the i-th event is
// seq+i); the batch slice is owned by the session and shared read-only
// across every lane.
//
// When the ingress filter index routed the item, the selection fields
// carry the per-lane verdict: evSlots (single event) or slots/slotOff
// (batch) list the hit subscription slots of a shared DAG lane, sorted
// ascending, and sel lists the matched events' indices within the shared
// batch. Private lanes get sel only — being routed at all is their
// verdict. Nil selection fields mean "everything", the broadcast shape.
type sessionItem struct {
	ev    *Event
	seq   uint64
	batch []*Event // non-nil for SubmitBatch items; ev is nil then
	// t0 is the UnixNano submission stamp of a latency-sampled item (0 on
	// the unsampled fast path): matches this item completes observe
	// submit→emission detection latency on the lane's histogram. With
	// TraceConfig.Provenance every item is stamped, so every match's Prov
	// carries its latency.
	t0 int64
	// tr is the trace context of a sampled submission (nil on the
	// untraced path): lane workers append dequeue/engine/emit spans to it.
	tr *trace.Active

	evSlots []int32 // single event, shared lane: hit subscription slots
	sel     []int32 // batch: matched event indices, ascending
	slots   []int32 // batch, shared lane: flattened per-event slot lists
	slotOff []int32 // batch, shared lane: slots[slotOff[k]:slotOff[k+1]] is sel[k]'s list
}

// Session is the front door for serving: any number of named queries over
// one event feed, each query on its own worker lane behind a bounded
// queue, under one lifecycle and one error model. It composes with
// ShardedRuntime (one query, partitioned feed): RegisterDetector accepts
// any Detector, so a query may itself be sharded, partitioned or adaptive.
// With
// SessionConfig.ShareSubplans, overlapping queries are grouped onto shared
// evaluation lanes that compute common sub-joins once.
//
// Lifecycle: NewSession → Register/RegisterDetector → Start (or let
// Run/Process auto-start) → Submit/Run → Flush (collect) or Close
// (discard). Drain is a mid-stream barrier. Matches flow to the per-query
// OnMatch, else to the session MatchSink, else they accumulate and are
// returned by Flush and Results.
//
// The query set is dynamic: AddQuery registers a query before or after
// Start, and RemoveQuery deregisters one, both safe against a concurrent
// feed. On a sharing session the affected component is incrementally
// re-optimized (see ShareReport for the decision trail).
//
// Session itself satisfies Detector: Process is Submit, and Flush ends the
// stream across every query, returning the accumulated matches in query
// registration order.
//
// The worker/lifecycle machinery — bounded queues, drain barriers,
// close-under-write-lock shutdown, first-error recording — is the shared
// internal/pool helper also driving ShardedRuntime. Worker-owned state
// (per-query accumulation buffers) is read only after the pool reports
// joined.
type Session struct {
	cfg  SessionConfig
	pool *pool.Pool[sessionItem]

	// mu guards registration (the query list), the lane table mutations and
	// the session-level lifecycle decisions (started/closed); the pool owns
	// the queue-level machinery behind its own lock.
	mu      sync.Mutex
	started bool
	closed  bool
	queries []*sessionQuery
	byName  map[string]*sessionQuery

	// laneTab is the pool-lane-index → lane table, copy-on-write: workers
	// load it atomically on every item, AddQuery/RemoveQuery swap in a
	// grown copy under mu, so live lane additions never race the feed.
	// Retired lanes stay as tombstones — pool lane indices are stable.
	laneTab atomic.Pointer[[]*sessionLane]

	// intakeMu serializes event intake against lane splicing: Submit holds
	// the read side across the broadcast, AddQuery/RemoveQuery hold the
	// write side while they drain and rebuild lanes, so a splice observes a
	// quiescent DAG and the feed observes atomically swapped lanes.
	intakeMu sync.RWMutex
	// seq numbers submitted events (1, 2, ...), in submission order.
	seq atomic.Uint64

	// fidx is the ingress filter index (RCU): the feed path loads it
	// lock-free under intakeMu's read side, and every lane-set mutation
	// rebuilds the affected type shards and swaps the pointer under the
	// write side — so an index never references a retired lane. Nil until
	// the lanes are built; an Empty index falls back to broadcast.
	fidx atomic.Pointer[filterindex.Index]

	// reoptGen counts completed re-optimizations; nextComp allocates global
	// sharing-component ids.
	reoptGen int
	nextComp int

	// adapt is the adaptivity state (statistics collector, drift detector,
	// persistence seed); nil when neither SessionConfig.Adaptive nor
	// StatsPath is configured. See session_adaptive.go.
	adapt *sessionAdapt

	// tel is the telemetry state (feed counters, latency sampler,
	// control-plane journal); nil when TelemetryConfig.Disabled — hot-path
	// instrumentation sites guard on that one nil check. See telemetry.go
	// and session_metrics.go.
	tel *sessionTelemetry

	// tr is the tracing state (trace sampler, bounded trace ring,
	// provenance flag); nil unless SessionConfig.Trace enables it. See
	// session_trace.go.
	tr *sessionTracer
}

// sessionQuery is one registered query. Before Start it is only a
// declaration; Start (or a live AddQuery) assigns it to a lane — a private
// lane driving its own Detector, or a shared MQO lane evaluating several
// queries at once.
type sessionQuery struct {
	name    string
	det     Detector
	rt      *Runtime     // non-nil when registered via Register/AddQuery (plan available for sharing)
	qc      *QueryConfig // non-nil when registered via Register/AddQuery
	onMatch func(*Match)
	dead    bool     // stop processing after the first error
	matches []*Match // accumulated when no sink applies
	// nmatches counts the query's emitted matches (telemetry): bumped by
	// whichever worker delivers for the query, read by Metrics snapshots.
	// It survives lane splices — the counter belongs to the query, not the
	// lane.
	nmatches telemetry.Counter
	// emitMu serializes deliveries when the query's component is key-
	// partitioned: the P sibling lanes serve the same members concurrently,
	// so accumulation (and a user sink) must be mutually excluded per query.
	// Unpartitioned lanes never take it — one worker owns each query there.
	emitMu sync.Mutex

	lane     *sessionLane // current lane, set once started
	eligible bool         // may participate in subplan sharing
	since    uint64       // stream sequence watermark of registration
	// shareKeys are the canonical sub-join keys this query could share
	// under — the index AddQuery/RemoveQuery consult to find the affected
	// sharing component.
	shareKeys []string
	// sigs lazily caches the canonical-signature tables the drift check
	// prices trees with; invalidated when a re-optimization swaps rt.
	sigs *mqo.Sigs
}

// mqoSigs returns (building on first use) the query's canonical-signature
// cache for shared-cost pricing.
func (q *sessionQuery) mqoSigs() *mqo.Sigs {
	if q.sigs == nil {
		sp := q.rt.plan.Simple[0]
		q.sigs = mqo.NewSigs(sp.Compiled, sp.Stats.TermIndex)
	}
	return q.sigs
}

// NewSession builds an empty session.
func NewSession(cfg SessionConfig) *Session {
	s := &Session{cfg: cfg.withDefaults(), byName: make(map[string]*sessionQuery)}
	s.adapt = newSessionAdapt(s.cfg)
	s.tel = newSessionTelemetry(s.cfg.Telemetry)
	s.tr = newSessionTracer(s.cfg.Trace)
	empty := []*sessionLane{}
	s.laneTab.Store(&empty)
	hooks := pool.Hooks[sessionItem]{
		Work:   func(lane int, it sessionItem) { (*s.laneTab.Load())[lane].work(it) },
		Finish: func(lane int) { (*s.laneTab.Load())[lane].finish() },
	}
	if s.tel != nil {
		// Back-pressure stalls are bumped on the *sender* goroutine the
		// moment a send finds a lane queue full; the counter is the lane's,
		// so a snapshot reads stalls next to the queue they describe.
		hooks.OnStall = func(lane int) { (*s.laneTab.Load())[lane].tc.Stalls.Inc() }
	}
	s.pool = pool.New(hooks)
	return s
}

// sessErr translates pool lifecycle sentinels into the session's error
// vocabulary.
func sessErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, pool.ErrClosed):
		return fmt.Errorf("cep: session: %w", ErrClosed)
	case errors.Is(err, pool.ErrNotStarted):
		return fmt.Errorf("cep: session not started")
	case errors.Is(err, pool.ErrStarted):
		return fmt.Errorf("cep: session already started")
	case errors.Is(err, pool.ErrNoLanes):
		return fmt.Errorf("cep: session has no registered queries")
	default:
		return err
	}
}

// Register plans the query described by the config and adds it under its
// name. Registration must happen before the session starts; use AddQuery to
// register on a running session.
func (s *Session) Register(qc QueryConfig) error {
	q, err := s.planQuery(qc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started && !s.closed {
		return fmt.Errorf("cep: session already started; use AddQuery to register on a running session")
	}
	return s.registerLocked(q)
}

// AddQuery registers a query on a session in any pre-close state. Before
// Start it is equivalent to Register. On a running session the query goes
// live atomically with respect to the feed: it observes exactly the events
// submitted after AddQuery returns, and (on a sharing session) the affected
// sharing component — every query that could share a sub-join with the new
// one, transitively — is re-optimized incrementally: the component's lanes
// are drained, a new shared DAG is built, and the surviving queries'
// buffered partial matches are spliced into it, so no query drops or
// duplicates a match across the transition. Queries outside the affected
// component are untouched. When the cost model finds nothing worth sharing
// the query runs on its own lane.
func (s *Session) AddQuery(qc QueryConfig) error {
	q, err := s.planQuery(qc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return s.registerLocked(q)
	}
	if err := s.checkNameLocked(q.name); err != nil {
		return err
	}
	if err := s.spliceAddLocked(q); err != nil {
		return err
	}
	s.tel.record(s.seq.Load(), "add_query", q.name)
	return nil
}

// planQuery builds the runtime for a config, with delivery stripped:
// delivery is the session's job, so the engine callback and the session
// sink never double-deliver. Queries without statistics of their own plan
// from the persisted StatsPath seed when one is available.
func (s *Session) planQuery(qc QueryConfig) (*sessionQuery, error) {
	rtCfg := qc
	rtCfg.OnMatch = nil
	if s.adapt != nil {
		if s.adapt.loadErr != nil {
			return nil, s.adapt.loadErr
		}
		if rtCfg.Stats == nil && s.adapt.seed != nil {
			rtCfg.Stats = s.adapt.seed
		}
	}
	rt, err := NewFromConfig(rtCfg)
	if err != nil {
		return nil, err
	}
	return &sessionQuery{name: qc.Name, det: rt, rt: rt, qc: &rtCfg, onMatch: qc.OnMatch}, nil
}

// RegisterDetector adds a pre-built detector — a Runtime, an
// AdaptiveRuntime, a ShardedRuntime, anything satisfying Detector — under
// the name. onMatch may be nil to fall through to the session sink (or
// accumulation). The session takes ownership: it will Flush and Close the
// detector. Detector queries never participate in subplan sharing — their
// evaluation plan is opaque to the session.
func (s *Session) RegisterDetector(name string, d Detector, onMatch func(*Match)) error {
	if d == nil {
		return fmt.Errorf("cep: query %q: nil detector", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started && !s.closed {
		return fmt.Errorf("cep: session already started; register queries before Start")
	}
	return s.registerLocked(&sessionQuery{name: name, det: d, onMatch: onMatch})
}

func (s *Session) checkNameLocked(name string) error {
	if name == "" {
		return fmt.Errorf("cep: query name must not be empty")
	}
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("cep: duplicate query name %q", name)
	}
	return nil
}

func (s *Session) registerLocked(q *sessionQuery) error {
	if s.closed {
		return fmt.Errorf("cep: session: %w", ErrClosed)
	}
	if s.started {
		return fmt.Errorf("cep: session already started; register queries before Start")
	}
	if err := s.checkNameLocked(q.name); err != nil {
		return err
	}
	s.queries = append(s.queries, q)
	s.byName[q.name] = q
	return nil
}

// RemoveQuery deregisters a query. On a running session the removal is a
// barrier: events already submitted are fully processed (and delivered)
// first, then the query's lane is retired — afterwards no sink sees the
// name again and the name may be reused. A removed member of a shared lane
// triggers an incremental re-optimization of its component; the remaining
// members keep their buffered state. Matches the removed query had
// accumulated (rather than delivered) are discarded; end-of-stream
// pendings of negation patterns are discarded, not flushed.
func (s *Session) RemoveQuery(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cep: session: %w", ErrClosed)
	}
	q := s.byName[name]
	if q == nil {
		return fmt.Errorf("cep: unknown query %q", name)
	}
	if !s.started {
		s.dropQueryLocked(q)
		if err := q.det.Close(); err != nil {
			return fmt.Errorf("cep: query %q: %w", name, err)
		}
		return nil
	}
	if err := s.spliceRemoveLocked(q); err != nil {
		return err
	}
	s.tel.record(s.seq.Load(), "remove_query", name)
	return nil
}

// dropQueryLocked removes the query from the registration bookkeeping.
func (s *Session) dropQueryLocked(q *sessionQuery) {
	delete(s.byName, q.name)
	for i, other := range s.queries {
		if other == q {
			s.queries = append(s.queries[:i], s.queries[i+1:]...)
			break
		}
	}
}

// Queries returns the registered query names in registration order.
func (s *Session) Queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.queries))
	for i, q := range s.queries {
		out[i] = q.name
	}
	return out
}

// Size returns the number of registered queries.
func (s *Session) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queries)
}

// Start launches the session's workers: one per private query, plus one per
// shared MQO lane when ShareSubplans grouped queries together. It errors if
// the session is empty, already started, or closed. Run and Process start
// the session implicitly; explicit Start is for Submit-driven feeds.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked(true)
}

func (s *Session) startLocked(explicit bool) error {
	if s.closed {
		return fmt.Errorf("cep: session: %w", ErrClosed)
	}
	if s.started {
		if explicit {
			return fmt.Errorf("cep: session already started")
		}
		return nil
	}
	if len(s.queries) == 0 {
		return fmt.Errorf("cep: session has no registered queries")
	}
	s.initAdaptLocked()
	if err := s.buildLanes(); err != nil {
		return err
	}
	s.wireIndexStats()
	if err := sessErr(s.pool.Start()); err != nil {
		return err
	}
	s.started = true
	s.tel.recordKV(0, "start",
		kv("queries", len(s.queries)), kv("lanes", len(*s.laneTab.Load())))
	return nil
}

// ensureStarted starts the workers if they are not running yet. The
// fast path keeps the per-event cost of the steady state at one RLock for
// Detector-style callers driving Process per event.
func (s *Session) ensureStarted() error {
	if s.pool.Started() {
		return nil // closed is re-checked under the pool lock by the submit path
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked(false)
}

// Submit feeds one event to the lanes that can use it, blocking on a full
// queue (back-pressure). The ingress filter index routes the event to the
// lanes whose patterns can consume its type (and, with
// SessionConfig.FilterIndex, whose constant unary predicates it
// satisfies); lanes with opaque detectors receive everything. All events
// must be submitted in timestamp order by a single goroutine (or with
// external ordering); queries consume them concurrently with each other,
// never with the submitter's next Submit of the same queue slot.
func (s *Session) Submit(e *Event) error {
	return s.submit(nil, e)
}

// submit routes under the intake read lock (so a lane splice never
// interleaves a send) and the pool's read lock; a non-nil ctx makes each
// blocking queue send cancellable. After the sends — outside every lock —
// the event feeds the adaptivity collector, which may run a drift check
// (and a re-optimization splice) on this goroutine.
func (s *Session) submit(ctx context.Context, e *Event) error {
	if e == nil {
		return ErrNilEvent
	}
	var t0 int64
	if s.tel != nil {
		s.tel.eventsSubmitted.Inc()
		if s.tel.sampler.Sample() {
			t0 = time.Now().UnixNano()
		}
	}
	if s.tr != nil && s.tr.prov && t0 == 0 {
		// Provenance stamps every item so every match reports its latency.
		t0 = time.Now().UnixNano()
	}
	s.intakeMu.RLock()
	seq := s.seq.Add(1)
	var tr *trace.Active
	if s.tr != nil {
		tr = s.tr.startTrace(seq, 1)
	}
	var err error
	if fi := s.fidx.Load(); fi != nil && !fi.Empty() {
		err = s.routeOne(ctx, fi, e, seq, t0, tr)
	} else {
		tr.Span(trace.StageEnqueue, -1, "broadcast")
		err = sessErr(s.pool.Broadcast(ctx, sessionItem{ev: e, seq: seq, t0: t0, tr: tr}))
	}
	s.intakeMu.RUnlock()
	if err != nil {
		return err
	}
	s.observeAdapt(e)
	return nil
}

// SubmitBatch broadcasts a timestamp-ordered batch of events to every lane
// as ONE queue item — one channel send, one worker wake-up and one lock
// round per lane for the whole batch, instead of one per event. It is
// semantically identical to submitting the events one by one: matches,
// watermarks and adaptivity observations are per event. The same ordering
// contract as Submit applies; the caller may reuse the slice as soon as the
// call returns. An empty batch is a no-op.
func (s *Session) SubmitBatch(events []*Event) error {
	return s.submitBatch(nil, events)
}

// submitBatch is SubmitBatch with a cancellable context, mirroring submit:
// sequence numbers are allocated and the broadcast happens under the intake
// read lock, the adaptivity observations after it, outside every lock.
func (s *Session) submitBatch(ctx context.Context, events []*Event) error {
	if len(events) == 0 {
		return nil
	}
	for _, e := range events {
		if e == nil {
			return ErrNilEvent
		}
	}
	// One defensive copy, shared read-only by every lane: the caller may
	// reuse its slice immediately, while workers are still processing.
	batch := make([]*Event, len(events))
	copy(batch, events)
	var t0 int64
	if s.tel != nil {
		s.tel.eventsSubmitted.Add(int64(len(batch)))
		s.tel.batchesSubmitted.Inc()
		if s.tel.sampler.Sample() {
			t0 = time.Now().UnixNano()
		}
	}
	if s.tr != nil && s.tr.prov && t0 == 0 {
		t0 = time.Now().UnixNano()
	}
	s.intakeMu.RLock()
	last := s.seq.Add(uint64(len(batch)))
	seq0 := last - uint64(len(batch)) + 1
	var tr *trace.Active
	if s.tr != nil {
		tr = s.tr.startTrace(seq0, len(batch))
	}
	var err error
	if fi := s.fidx.Load(); fi != nil && !fi.Empty() {
		err = s.routeBatch(ctx, fi, batch, seq0, t0, tr)
	} else {
		tr.Span(trace.StageEnqueue, -1, "broadcast")
		err = sessErr(s.pool.Broadcast(ctx, sessionItem{batch: batch, seq: seq0, t0: t0, tr: tr}))
	}
	s.intakeMu.RUnlock()
	if err != nil {
		return err
	}
	s.observeBatchAdapt(batch)
	return nil
}

// Run streams an event source through the session until the source is
// exhausted or the context is cancelled, starting the workers if needed.
// On normal end of source it drains the queues (a barrier, not a flush —
// detection continues across Runs) and returns nil; on cancellation it
// returns ctx.Err() without waiting for queued events. Matches flow to the
// registered sinks throughout; call Flush after the final Run to release
// end-of-stream pendings.
//
// Cancellation truncates the stream mid-broadcast: the final event may
// have reached only a prefix of the lanes (broadcast happens in
// registration order), so per-query results harvested after a cancelled
// Run are cut at slightly different stream positions. Treat them as
// partial; the cross-query equivalence guarantee holds only for streams
// that ended normally.
func (s *Session) Run(ctx context.Context, src EventSource) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		return fmt.Errorf("cep: session: nil event source")
	}
	if err := s.ensureStarted(); err != nil {
		return err
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		e := src.Next()
		if e == nil {
			return s.Drain()
		}
		if err := s.submit(ctx, e); err != nil {
			return err
		}
	}
}

// Drain is a mid-stream barrier: it blocks until every event submitted
// before the call has been processed by every query. Engines are not
// flushed; detection continues seamlessly.
func (s *Session) Drain() error {
	return sessErr(s.pool.Drain())
}

// Process submits one event — the Detector view of the session. Matches
// are delivered asynchronously through the sinks (or accumulate for
// Flush), so Process always returns a nil match slice. The session starts
// implicitly on the first call.
func (s *Session) Process(e *Event) ([]*Match, error) {
	if e == nil {
		return nil, ErrNilEvent
	}
	if err := s.ensureStarted(); err != nil {
		return nil, err
	}
	return nil, s.Submit(e)
}

// ProcessBatch submits a whole batch — the BatchDetector view of the
// session. As with Process, matches are delivered asynchronously through
// the sinks, so the returned slice is always nil. The session starts
// implicitly on the first call.
func (s *Session) ProcessBatch(events []*Event) ([]*Match, error) {
	for _, e := range events {
		if e == nil {
			return nil, ErrNilEvent
		}
	}
	if len(events) == 0 {
		return nil, nil
	}
	if err := s.ensureStarted(); err != nil {
		return nil, err
	}
	return nil, s.SubmitBatch(events)
}

// Flush ends the stream: it stops intake, waits for every queued event,
// flushes and closes every query's detector, joins the workers, and
// returns the accumulated matches (of queries without a sink) concatenated
// in query registration order — so the output is reproducible run to run.
// The error is the first error any query reported. Flushing a flushed (or
// closed) session returns ErrClosed; flushing a never-started session
// closes it with no matches.
func (s *Session) Flush() ([]*Match, error) {
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	var out []*Match
	for _, q := range s.queries {
		out = append(out, q.matches...)
	}
	return out, s.pool.Err()
}

// Close ends the stream and discards accumulated matches (sink deliveries
// still happen while draining, including end-of-stream flushes). It is
// idempotent: closing a closed or flushed session returns nil. Use Flush
// to collect the matches instead.
func (s *Session) Close() error {
	if err := s.shutdown(); err != nil {
		return nil // already shut down: idempotent
	}
	return s.pool.Err()
}

// shutdown stops intake, drains and joins the workers exactly once; a
// second call returns ErrClosed. Shutting down a never-started session
// closes the registered detectors inline, since no worker ever owned them.
func (s *Session) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("cep: session: %w", ErrClosed)
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	if !started {
		// Mark the pool closed+joined (no workers ever ran), then close the
		// detectors the session took ownership of.
		_ = s.pool.Shutdown()
		for _, q := range s.queries {
			if err := q.det.Close(); err != nil {
				s.recordErr(q, err)
			}
		}
		return nil
	}
	err := sessErr(s.pool.Shutdown())
	s.tel.record(s.seq.Load(), "shutdown", "")
	// Persist the measured statistics (StatsPath) now that intake stopped;
	// a save failure is a session error, not a shutdown failure.
	if serr := s.saveStats(); serr != nil {
		s.pool.RecordErr(serr)
	}
	return err
}

// Results returns the accumulated matches per query (queries with a sink
// have none). It must be called after Flush or Close; before shutdown it
// returns nil.
func (s *Session) Results() map[string][]*Match {
	if !s.pool.Joined() {
		return nil
	}
	out := make(map[string][]*Match, len(s.queries))
	for _, q := range s.queries {
		out[q.name] = q.matches
	}
	return out
}

// Matches returns one query's accumulated matches after Flush or Close.
func (s *Session) Matches(query string) []*Match {
	if !s.pool.Joined() {
		return nil
	}
	if q, ok := s.byName[query]; ok {
		return q.matches
	}
	return nil
}

// Err returns the first error any query reported so far.
func (s *Session) Err() error { return s.pool.Err() }

// recordErr keeps the first query error.
func (s *Session) recordErr(q *sessionQuery, err error) {
	s.pool.RecordErr(fmt.Errorf("cep: query %q: %w", q.name, err))
}

// emit routes matches to the query sink, else the session sink, else the
// accumulation buffer.
func (s *Session) emit(q *sessionQuery, ms []*Match) {
	if len(ms) == 0 {
		return
	}
	if s.tel != nil {
		q.nmatches.Add(int64(len(ms)))
	}
	switch {
	case q.onMatch != nil:
		for _, m := range ms {
			q.onMatch(m)
		}
	case s.cfg.OnMatch != nil:
		for _, m := range ms {
			s.cfg.OnMatch(q.name, m)
		}
	default:
		q.matches = append(q.matches, ms...)
	}
}

// emitOne routes a single match.
func (s *Session) emitOne(q *sessionQuery, m *Match) {
	if s.tel != nil {
		q.nmatches.Inc()
	}
	switch {
	case q.onMatch != nil:
		q.onMatch(m)
	case s.cfg.OnMatch != nil:
		s.cfg.OnMatch(q.name, m)
	default:
		q.matches = append(q.matches, m)
	}
}

// laneShare carries a shared lane's optimizer decision for ShareReport,
// plus the members' final evaluated trees — the structure a drift check
// re-prices under fresh measurements.
type laneShare struct {
	members      []string
	trees        map[string]*plan.TreeNode
	restructured int
	nodes        int
	sharedNodes  int
	unshared     float64
	shared       float64
}

// sessionLane is one worker lane of the session: either a private lane
// driving a single query's Detector, or a shared lane evaluating one or
// more queries on an MQO DAG engine. The lane's worker goroutine owns all
// state reachable from it exclusively — except across a splice, where the
// drain barrier plus the queue hand the state over race-free.
type sessionLane struct {
	s   *Session
	idx int           // pool lane index (stable)
	q   *sessionQuery // private lane: the one query driven by this lane

	// shared lane: the MQO evaluation DAG and its member queries.
	eng     *mqo.Engine
	members map[string]*sessionQuery
	comp    int       // global sharing-component id
	gen     int       // re-optimization generation that built this lane
	info    laneShare // optimizer decision snapshot for ShareReport

	// Key-partitioned lane identity (parts <= 1 on unpartitioned lanes):
	// this lane owns partition index part of parts hash buckets over the
	// component's partAttr equi-join key; negSlots is the engine's
	// negation-intake slot boundary the router needs (negation hits must
	// never be partition-filtered).
	part     int
	parts    int
	partAttr string
	negSlots int

	// retired marks a lane spliced away (state adopted elsewhere): finish
	// is a no-op. discard marks a removed private query: finish closes the
	// detector without flushing. Both are written strictly before the
	// lane's queue closes, so the worker observes them.
	retired bool
	discard bool

	// selScratch is the worker-owned gather buffer for index-routed
	// batches on private lanes.
	selScratch []*Event

	// tc is the lane's telemetry block: the worker (and, for Stalls, the
	// stalled sender) increments, Metrics snapshots load. Counters stay
	// readable after the lane retires — tombstone lanes keep their totals,
	// which is what keeps the session-wide aggregates monotonic across
	// splices. Untouched when telemetry is disabled.
	tc telemetry.LaneCounters
}

// emitShared delivers one shared-lane match, serializing per query when the
// lane has partition siblings concurrently serving the same members.
func (l *sessionLane) emitShared(q *sessionQuery, m *Match) {
	if l.parts > 1 {
		q.emitMu.Lock()
		l.s.emitOne(q, m)
		q.emitMu.Unlock()
		return
	}
	l.s.emitOne(q, m)
}

// observe folds one processed item into the lane's telemetry: item/event/
// batch/match counts, plus the sampled detection latency when the item
// carried a submission stamp and completed matches.
func (l *sessionLane) observe(it sessionItem, events, matches int) {
	l.tc.Items.Inc()
	l.tc.Events.Add(int64(events))
	if it.batch != nil {
		l.tc.Batches.Inc()
	}
	if matches > 0 {
		l.tc.Matches.Add(int64(matches))
		if it.t0 != 0 {
			l.tc.Latency.ObserveN(time.Now().UnixNano()-it.t0, int64(matches))
		}
	}
}

// work processes one event on the lane's worker goroutine. On the first
// processing error a private query is marked dead and later events are
// dropped (the error is reported through Flush/Close/Err); the other lanes
// keep running.
func (l *sessionLane) work(it sessionItem) {
	if it.batch != nil {
		l.workBatch(it)
		return
	}
	it.tr.Span(trace.StageDequeue, l.idx, "")
	if l.eng != nil {
		var st0 mqo.EngineStats
		if it.tr != nil {
			st0 = l.eng.Stats()
		}
		var tms []mqo.Tagged
		if it.evSlots != nil {
			tms = l.eng.ProcessSelected(it.ev, it.seq, it.evSlots)
		} else {
			tms = l.eng.Process(it.ev, it.seq)
		}
		if it.tr != nil {
			l.engineSpan(it.tr, st0)
		}
		for _, tm := range tms {
			l.finishProv(tm.M, it.t0)
			l.emitShared(l.members[tm.Query], tm.M)
		}
		it.tr.Spanf(trace.StageEmit, l.idx, "matches=%d", len(tms))
		if l.s.tel != nil {
			l.observe(it, 1, len(tms))
		}
		return
	}
	q := l.q
	if q.dead {
		return
	}
	ms, err := q.det.Process(it.ev)
	if err != nil {
		l.s.recordErr(q, err)
		q.dead = true
		return
	}
	if l.s.tr != nil && l.s.tr.prov {
		l.attachProv(ms, it.t0)
	}
	l.s.emit(q, ms)
	it.tr.Spanf(trace.StageEmit, l.idx, "matches=%d", len(ms))
	if l.s.tel != nil {
		l.observe(it, 1, len(ms))
	}
}

// workBatch processes one batch item in a single wake-up. Shared lanes hand
// the whole batch to the DAG engine; private lanes use the detector's batch
// entry point when it has one, else fall back to per-event processing. The
// first error kills the query mid-batch, dropping its remainder — the same
// at-first-error semantics as the per-event path.
func (l *sessionLane) workBatch(it sessionItem) {
	it.tr.Span(trace.StageDequeue, l.idx, "")
	if l.eng != nil {
		var st0 mqo.EngineStats
		if it.tr != nil {
			st0 = l.eng.Stats()
		}
		var tms []mqo.Tagged
		if it.sel != nil {
			tms = l.eng.ProcessBatchSelected(it.batch, it.seq, it.sel, it.slotOff, it.slots)
		} else {
			tms = l.eng.ProcessBatch(it.batch, it.seq)
		}
		if it.tr != nil {
			l.engineSpan(it.tr, st0)
		}
		for _, tm := range tms {
			l.finishProv(tm.M, it.t0)
			l.emitShared(l.members[tm.Query], tm.M)
		}
		it.tr.Spanf(trace.StageEmit, l.idx, "matches=%d", len(tms))
		if l.s.tel != nil {
			n := len(it.batch)
			if it.sel != nil {
				n = len(it.sel)
			}
			l.observe(it, n, len(tms))
		}
		return
	}
	q := l.q
	if q.dead {
		return
	}
	prov := l.s.tr != nil && l.s.tr.prov
	evs := it.batch
	if it.sel != nil {
		// Index-routed batch: gather the lane's selected events into the
		// worker-owned scratch (detectors must not retain the slice).
		evs = l.selScratch[:0]
		for _, i := range it.sel {
			evs = append(evs, it.batch[i])
		}
		l.selScratch = evs
	}
	if bd, ok := q.det.(BatchDetector); ok {
		ms, err := bd.ProcessBatch(evs)
		if err != nil {
			l.s.recordErr(q, err)
			q.dead = true
			return
		}
		if prov {
			l.attachProv(ms, it.t0)
		}
		l.s.emit(q, ms)
		it.tr.Spanf(trace.StageEmit, l.idx, "matches=%d", len(ms))
		if l.s.tel != nil {
			l.observe(it, len(evs), len(ms))
		}
		return
	}
	matches := 0
	for _, ev := range evs {
		ms, err := q.det.Process(ev)
		if err != nil {
			l.s.recordErr(q, err)
			q.dead = true
			return
		}
		if prov {
			l.attachProv(ms, it.t0)
		}
		l.s.emit(q, ms)
		matches += len(ms)
	}
	it.tr.Spanf(trace.StageEmit, l.idx, "matches=%d", matches)
	if l.s.tel != nil {
		l.observe(it, len(evs), matches)
	}
}

// finish runs after the lane's queue closed: flush and close the engines.
func (l *sessionLane) finish() {
	if l.retired {
		return // spliced away: a successor lane owns the state now
	}
	if l.eng != nil {
		for _, tm := range l.eng.Flush() {
			// Flush-released pendings carry no submission stamp: their Prov
			// latency stays 0, mirroring the latency histogram's semantics.
			l.finishProv(tm.M, 0)
			l.emitShared(l.members[tm.Query], tm.M)
		}
		l.eng.Close()
		for _, q := range l.members {
			// The members' private runtimes never ran; release them anyway —
			// the session took ownership at registration. Partition siblings
			// all run this hook; only the member's owning lane (q.lane, the
			// partition-0 sibling) closes, so the runtime is closed once.
			if q.lane != l {
				continue
			}
			if err := q.det.Close(); err != nil {
				l.s.recordErr(q, err)
			}
		}
		return
	}
	q := l.q
	if !q.dead && !l.discard {
		ms, err := q.det.Flush()
		if err != nil {
			l.s.recordErr(q, err)
		}
		if l.s.tr != nil && l.s.tr.prov {
			l.attachProv(ms, 0)
		}
		l.s.emit(q, ms)
	}
	if err := q.det.Close(); err != nil {
		l.s.recordErr(q, err)
	}
}

// ShareReport summarizes what the shared-subplan optimizer has decided so
// far, in cost-model terms: how many queries are eligible for sharing, how
// many share an evaluation DAG (and which, lane by lane), how many had
// their plans restructured toward a common sub-join, the distinct DAG node
// counts, and the modeled unshared vs shared cost.
type ShareReport struct {
	Eligible     int
	Shared       int
	Restructured int
	Nodes        int
	SharedNodes  int
	UnsharedCost float64
	SharedCost   float64
	// Groups lists the member query names of each shared lane.
	Groups [][]string
	// Generation counts the incremental re-optimizations performed so far
	// (0 until the first live AddQuery/RemoveQuery touches a component).
	Generation int
	// Components describes each live sharing component.
	Components []ComponentReport
}

// ComponentReport describes one connected sharing component: its member
// query names (sorted), the number of worker lanes serving it (more than
// one when SessionConfig.SharedWorkers split its root fan-out or
// SessionConfig.PartitionWorkers hash-partitioned it), and the
// re-optimization generation that last rebuilt it. On an adaptive session
// (SessionConfig.Adaptive), DriftScore is the component's drift score at
// the last check and Reopts counts the drift re-optimizations of its
// lineage; see Session.DriftReport for the full drift state.
type ComponentReport struct {
	Members    []string
	Lanes      int
	Generation int
	DriftScore float64
	Reopts     int
	// Partitions and PartitionAttr describe a key-partitioned component:
	// its lanes each own one hash bucket of the PartitionAttr equi-join
	// key. 0 (and "") on unpartitioned components.
	Partitions    int
	PartitionAttr string
	// LaneQueues has one row per worker lane serving the component, in pool
	// lane order: the lane's partition id (-1 on unpartitioned lanes) and
	// its instantaneous queue depth and capacity.
	LaneQueues []ComponentLane
}

// ComponentLane is one worker lane row of a ComponentReport.
type ComponentLane struct {
	// Lane is the stable pool lane index.
	Lane int
	// Partition is the hash bucket this lane owns, -1 when the component is
	// not key-partitioned.
	Partition int
	// Depth and Capacity are the lane queue's instantaneous fill and size.
	Depth    int
	Capacity int
}

// ShareReport returns a snapshot of the optimizer's current decisions, or
// nil before the session started or when ShareSubplans is off. The
// snapshot is immutable and consistent — it reflects one instant of a
// session whose query set may be churning — but two calls around an
// AddQuery/RemoveQuery may differ arbitrarily; compare Generation (and the
// per-component generations) to detect intervening re-optimizations.
func (s *Session) ShareReport() *ShareReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cfg.ShareSubplans || !s.started {
		return nil
	}
	rep := &ShareReport{Generation: s.reoptGen}
	for _, q := range s.queries {
		if q.eligible {
			rep.Eligible++
		}
	}
	type compAgg struct {
		members []string
		lanes   int
		gen     int
		parts   int
		attr    string
		rows    []ComponentLane
	}
	comps := map[int]*compAgg{}
	var compOrder []int
	for _, l := range *s.laneTab.Load() {
		if l.retired || l.eng == nil {
			continue
		}
		ca := comps[l.comp]
		if ca == nil {
			ca = &compAgg{}
			comps[l.comp] = ca
			compOrder = append(compOrder, l.comp)
		}
		// Partition siblings serve identical member sets; count the members
		// once (the partition-0 sibling speaks for the family).
		if l.parts <= 1 || l.part == 0 {
			ca.members = append(ca.members, l.info.members...)
		}
		ca.lanes++
		if l.gen > ca.gen {
			ca.gen = l.gen
		}
		if l.parts > 1 {
			ca.parts, ca.attr = l.parts, l.partAttr
		}
		row := ComponentLane{Lane: l.idx, Partition: -1}
		if l.parts > 1 {
			row.Partition = l.part
		}
		row.Depth, row.Capacity = s.pool.QueueStats(l.idx)
		ca.rows = append(ca.rows, row)
	}
	sort.Ints(compOrder)
	for _, id := range compOrder {
		ca := comps[id]
		if len(ca.members) < 2 {
			continue // an unshared eligible query on its own lane
		}
		members := append([]string(nil), ca.members...)
		sort.Strings(members)
		cr := ComponentReport{
			Members: members, Lanes: ca.lanes, Generation: ca.gen,
			Partitions: ca.parts, PartitionAttr: ca.attr, LaneQueues: ca.rows,
		}
		if s.adapt != nil && s.adapt.det != nil {
			if st, ok := s.adapt.det.Peek(id); ok {
				cr.DriftScore = st.Score
				cr.Reopts = st.Reopts
			}
		}
		rep.Components = append(rep.Components, cr)
		rep.Shared += len(ca.members)
	}
	for _, l := range *s.laneTab.Load() {
		if l.retired || l.eng == nil {
			continue
		}
		if ca := comps[l.comp]; ca == nil || len(ca.members) < 2 {
			continue
		}
		if l.parts > 1 && l.part != 0 {
			continue // cost/structure totals are per family, not per sibling
		}
		rep.Groups = append(rep.Groups, append([]string(nil), l.info.members...))
		rep.Restructured += l.info.restructured
		rep.Nodes += l.info.nodes
		rep.SharedNodes += l.info.sharedNodes
		rep.UnsharedCost += l.info.unshared
		// A partitioned lane's SharedCost is its per-lane share; the family
		// (reported once, via partition 0) costs parts times that.
		if l.parts > 1 {
			rep.SharedCost += l.info.shared * float64(l.parts)
		} else {
			rep.SharedCost += l.info.shared
		}
	}
	return rep
}

// mqoOpts returns the optimizer options the session runs under.
func (s *Session) mqoOpts() mqo.Options {
	return mqo.Options{GroupWorkers: s.cfg.SharedWorkers, Partitions: s.cfg.PartitionWorkers}
}

// mqoQuery lowers a registered query into the optimizer's input form.
func mqoQuery(q *sessionQuery) mqo.Query {
	return mqo.Query{Name: q.name, SP: q.rt.plan.Simple[0], Since: q.since}
}

// addLaneLocked appends a lane to both the pool and the lane table. The
// caller holds mu (and, on a running session, intakeMu).
func (s *Session) addLaneLocked(l *sessionLane) error {
	idx, err := s.pool.AddLaneRunning(s.cfg.QueueLen)
	if err != nil {
		return sessErr(err)
	}
	l.idx = idx
	tab := *s.laneTab.Load()
	next := make([]*sessionLane, len(tab), len(tab)+1)
	copy(next, tab)
	next = append(next, l)
	if idx != len(next)-1 {
		return fmt.Errorf("cep: internal: lane table out of sync (pool %d, table %d)", idx, len(next)-1)
	}
	s.laneTab.Store(&next)
	return nil
}

// engineLane wires a shared-group lane and points its members at it. For a
// key-partitioned group only the partition-0 sibling becomes the members'
// q.lane — the one lane per query that owns splice targeting and detector
// close; its component id still reaches every sibling via lane.comp.
func (s *Session) engineLane(g mqo.Group, comp int) *sessionLane {
	if s.tr != nil && s.tr.prov {
		g.Engine.EnableProvenance()
	}
	lane := &sessionLane{
		s: s, eng: g.Engine, members: map[string]*sessionQuery{},
		comp: comp, gen: s.reoptGen,
		part: g.Partition, parts: g.Partitions, partAttr: g.PartitionAttr,
		negSlots: g.Engine.NegSlotCount(),
		info: laneShare{
			members:      append([]string(nil), g.Members...),
			trees:        g.Trees,
			restructured: g.Restructured,
			nodes:        g.Nodes,
			sharedNodes:  g.SharedNodes,
			unshared:     g.UnsharedCost,
			shared:       g.SharedCost,
		},
	}
	for _, name := range g.Members {
		q := s.byName[name]
		lane.members[name] = q
		if g.Partitions <= 1 || g.Partition == 0 {
			q.lane = lane
		}
	}
	return lane
}

// buildLanes assigns every registered query to a worker lane at Start.
// Without ShareSubplans each query gets its own private lane; with it, the
// MQO optimizer canonicalizes the eligible queries' tree plans, groups
// overlapping queries whose sharing the cost model predicts to win onto
// shared evaluation lanes (splitting hot components across
// SessionConfig.SharedWorkers lanes), and gives every other eligible query
// a singleton DAG lane — the shape whose buffered state a later live
// re-optimization can adopt. Ineligible queries keep private lanes.
func (s *Session) buildLanes() error {
	var lanes []*sessionLane
	onShared := map[string]bool{}
	if s.cfg.ShareSubplans {
		var cand []mqo.Query
		for _, q := range s.queries {
			if q.rt == nil || q.qc == nil || !mqo.Eligible(q.rt.plan, q.qc.Strategy) {
				continue
			}
			q.eligible = true
			cand = append(cand, mqoQuery(q))
		}
		var groups []mqo.Group
		if len(cand) >= 2 {
			res, err := mqo.Optimize(cand, s.mqoOpts())
			if err != nil {
				return fmt.Errorf("cep: subplan sharing: %w", err)
			}
			groups = res.Groups
			for name, keys := range res.Keys {
				s.byName[name].shareKeys = keys
			}
			for _, name := range res.Private {
				g, err := mqo.Single(mqoQuery(s.byName[name]))
				if err != nil {
					return fmt.Errorf("cep: subplan sharing: %w", err)
				}
				groups = append(groups, g)
			}
		} else if len(cand) == 1 {
			q := s.byName[cand[0].Name]
			g, err := mqo.Single(cand[0])
			if err != nil {
				return fmt.Errorf("cep: subplan sharing: %w", err)
			}
			groups = append(groups, g)
			q.shareKeys = mqo.QueryKeys(cand[0], s.mqoOpts())
		}
		compOf := map[int]int{}
		for _, g := range groups {
			comp := s.nextComp
			if g.Component >= 0 {
				if id, ok := compOf[g.Component]; ok {
					comp = id
				} else {
					compOf[g.Component] = comp
					s.nextComp++
				}
			} else {
				s.nextComp++
			}
			lane := s.engineLane(g, comp)
			lanes = append(lanes, lane)
			for _, name := range g.Members {
				onShared[name] = true
			}
		}
	}
	for _, q := range s.queries {
		if onShared[q.name] {
			continue
		}
		if err := s.wrapPrivateAdaptive(q); err != nil {
			return err
		}
		lane := &sessionLane{s: s, q: q}
		q.lane = lane
		lanes = append(lanes, lane)
	}
	for i, lane := range lanes {
		lane.idx = i
		s.pool.AddLane(s.cfg.QueueLen)
	}
	s.laneTab.Store(&lanes)
	s.rebuildIndexLocked(nil)
	return nil
}

// spliceAddLocked brings a query live on a running session. The caller
// holds mu.
func (s *Session) spliceAddLocked(q *sessionQuery) error {
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	q.since = s.seq.Load() + 1
	q.eligible = s.cfg.ShareSubplans && q.rt != nil && q.qc != nil &&
		mqo.Eligible(q.rt.plan, q.qc.Strategy)

	if !q.eligible {
		if err := s.wrapPrivateAdaptive(q); err != nil {
			return err
		}
		lane := &sessionLane{s: s, q: q}
		q.lane = lane
		if err := s.addLaneLocked(lane); err != nil {
			return err
		}
		s.queries = append(s.queries, q)
		s.byName[q.name] = q
		dirty := map[string]bool{}
		s.laneDirtyTypes(dirty, lane)
		s.rebuildIndexLocked(dirty)
		return nil
	}

	mq := mqoQuery(q)
	keys := mqo.QueryKeys(mq, s.mqoOpts())
	affected := s.affectedLanesLocked(keys)
	if len(affected) == 0 {
		// Nothing to share with: a singleton DAG lane, ready for future
		// adoption. The feed keeps flowing — no drain needed, the new lane
		// sees exactly the events submitted after it appears.
		g, err := mqo.Single(mq)
		if err != nil {
			return fmt.Errorf("cep: subplan sharing: %w", err)
		}
		q.shareKeys = keys
		s.queries = append(s.queries, q)
		s.byName[q.name] = q
		lane := s.engineLane(g, s.nextComp)
		s.nextComp++
		if err := s.addLaneLocked(lane); err != nil {
			return err
		}
		dirty := map[string]bool{}
		s.laneDirtyTypes(dirty, lane)
		s.rebuildIndexLocked(dirty)
		return nil
	}

	// Re-optimize the affected component together with the new query,
	// splicing the drained DAG state into the successor lanes.
	if err := sessErr(s.pool.Drain()); err != nil {
		return err
	}
	input := []mqo.Query{mq}
	seen := map[string]bool{q.name: true}
	for _, lane := range affected {
		for _, m := range lane.members {
			// Partition siblings repeat the component's members; each query
			// enters the re-optimization once.
			if !seen[m.name] {
				seen[m.name] = true
				input = append(input, mqoQuery(m))
			}
		}
	}
	s.queries = append(s.queries, q)
	s.byName[q.name] = q
	if err := s.applySpliceLocked(affected, input); err != nil {
		s.dropQueryLocked(q)
		return err
	}
	return nil
}

// spliceRemoveLocked takes a query off a running session. The caller holds
// mu.
func (s *Session) spliceRemoveLocked(q *sessionQuery) error {
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	// Barrier: events already submitted are fully processed under the old
	// lane set, so deliveries for the removed name end here.
	if err := sessErr(s.pool.Drain()); err != nil {
		return err
	}
	lane := q.lane
	switch {
	case lane.eng == nil:
		// Private lane: retire it; the worker closes the detector without
		// flushing.
		dirty := map[string]bool{}
		s.laneDirtyTypes(dirty, lane)
		lane.discard = true
		if err := sessErr(s.pool.CloseLane(lane.idx)); err != nil {
			return err
		}
		s.dropQueryLocked(q)
		s.rebuildIndexLocked(dirty)
		return nil
	case len(lane.members) == 1:
		// Singleton DAG lane: discard the engine state, close the runtime
		// inline (the lane worker never drives member detectors except at
		// finish, which retirement skips).
		dirty := map[string]bool{}
		s.laneDirtyTypes(dirty, lane)
		lane.retired = true
		if err := sessErr(s.pool.CloseLane(lane.idx)); err != nil {
			return err
		}
		lane.eng.Close()
		lane.eng = nil
		lane.members = nil
		s.dropQueryLocked(q)
		s.rebuildIndexLocked(dirty)
		if err := q.det.Close(); err != nil {
			s.recordErr(q, err)
		}
		return nil
	default:
		// Shared member: re-optimize the component without it.
		affected := s.componentLanesLocked(lane.comp)
		var input []mqo.Query
		seen := map[string]bool{}
		for _, al := range affected {
			for _, m := range al.members {
				if m != q && !seen[m.name] {
					seen[m.name] = true
					input = append(input, mqoQuery(m))
				}
			}
		}
		s.dropQueryLocked(q)
		if err := s.applySpliceLocked(affected, input); err != nil {
			return err
		}
		if err := q.det.Close(); err != nil {
			s.recordErr(q, err)
		}
		return nil
	}
}

// affectedLanesLocked returns the live shared lanes whose members could
// share a sub-join under any of the given keys.
func (s *Session) affectedLanesLocked(keys []string) []*sessionLane {
	keySet := make(map[string]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
	seen := map[*sessionLane]bool{}
	var out []*sessionLane
	for _, l := range *s.laneTab.Load() {
		if l.retired || l.eng == nil || seen[l] {
			continue
		}
		hit := false
	scan:
		for _, m := range l.members {
			for _, k := range m.shareKeys {
				if keySet[k] {
					hit = true
					break scan
				}
			}
		}
		if !hit {
			continue
		}
		// Pull in the whole component: a split component's other lanes must
		// re-optimize together with this one.
		for _, cl := range s.componentLanesLocked(l.comp) {
			if !seen[cl] {
				seen[cl] = true
				out = append(out, cl)
			}
		}
	}
	return out
}

// componentLanesLocked returns the live shared lanes of one component.
func (s *Session) componentLanesLocked(comp int) []*sessionLane {
	var out []*sessionLane
	for _, l := range *s.laneTab.Load() {
		if !l.retired && l.eng != nil && l.comp == comp {
			out = append(out, l)
		}
	}
	return out
}

// applySpliceLocked re-optimizes the given queries, adopts the affected
// lanes' DAG state into the successor engines, retires the old lanes and
// starts the new ones. The caller holds mu and intakeMu, and has drained
// the pool, so every engine involved is quiescent. On error the session is
// unchanged (all fallible work happens before the first mutation).
func (s *Session) applySpliceLocked(affected []*sessionLane, input []mqo.Query) error {
	var groups []mqo.Group
	if len(input) >= 2 {
		res, err := mqo.Optimize(input, s.mqoOpts())
		if err != nil {
			return fmt.Errorf("cep: subplan sharing: %w", err)
		}
		groups = res.Groups
		byName := map[string]mqo.Query{}
		for _, in := range input {
			byName[in.Name] = in
		}
		for _, name := range res.Private {
			g, err := mqo.Single(byName[name])
			if err != nil {
				return fmt.Errorf("cep: subplan sharing: %w", err)
			}
			groups = append(groups, g)
		}
		for name, keys := range res.Keys {
			s.byName[name].shareKeys = keys
		}
	} else if len(input) == 1 {
		g, err := mqo.Single(input[0])
		if err != nil {
			return fmt.Errorf("cep: subplan sharing: %w", err)
		}
		groups = append(groups, g)
		s.byName[input[0].Name].shareKeys = mqo.QueryKeys(input[0], s.mqoOpts())
	}

	spliceSeq := s.seq.Load() + 1
	olds := make([]*mqo.Engine, len(affected))
	dirty := map[string]bool{}
	for i, l := range affected {
		olds[i] = l.eng
		s.laneDirtyTypes(dirty, l)
	}
	s.reoptGen++
	for _, l := range affected {
		l.retired = true
		if err := sessErr(s.pool.CloseLane(l.idx)); err != nil {
			return err
		}
	}
	compOf := map[int]int{}
	for _, g := range groups {
		if s.tr != nil && s.tr.prov {
			// Must precede AdoptFrom: adoption copies per-instance seq
			// arrays only into engines that already track provenance.
			g.Engine.EnableProvenance()
		}
		g.Engine.AdoptFrom(olds, spliceSeq)
		comp := s.nextComp
		if g.Component >= 0 {
			if id, ok := compOf[g.Component]; ok {
				comp = id
			} else {
				compOf[g.Component] = comp
				s.nextComp++
			}
		} else {
			s.nextComp++
		}
		lane := s.engineLane(g, comp)
		if err := s.addLaneLocked(lane); err != nil {
			return err
		}
		s.laneDirtyTypes(dirty, lane)
	}
	s.rebuildIndexLocked(dirty)
	// The successors own the state now: release the predecessor engines so
	// the retired tombstone lanes stop holding a generation of buffered
	// partial matches alive. (The retired workers never touch l.eng — their
	// finish hook returns on the retired flag.)
	for _, l := range affected {
		l.eng.Close()
		l.eng = nil
		l.members = nil
	}
	s.tel.recordKV(spliceSeq-1, "splice",
		kv("gen", s.reoptGen), kv("lanes_before", len(affected)),
		kv("lanes_after", len(groups)), kv("queries", len(input)))
	return nil
}
