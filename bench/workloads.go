package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	cep "repro"
	"repro/internal/workload"
)

// batchSize is the SubmitBatch size of every workload (run protocol).
const batchSize = 256

// structureSeed fixes everything about a workload that is not an event
// draw: symbol rates, query shapes, constants, the history the planner
// statistics are measured on. -seed only changes the events, so every seed
// runs the same plans over statistically identical streams and the metrics
// of two seeds are comparable.
const structureSeed = 1

// historyEvents is the length of the fixed-seed history the query
// statistics (cep.Measure) are taken from.
const historyEvents = 20000

// spec is one canonical workload: its sizes (tuned once on the seed commit,
// see README "Calibration record") and its generator.
type spec struct {
	name string
	why  string
	// repEvents is the stream length of one saturation rep at the committed
	// run length (-seconds 20): about 3 s of closed-loop feed on the seed.
	repEvents int
	// shortEvents is the stream length under -short (smoke test).
	shortEvents int
	// pacedRate is the committed open-loop rate in events/s: half the
	// seed's median throughput_eps, two significant digits. Never derived
	// at run time.
	pacedRate float64
	// checkEvents is the length of the correctness stream (digests against
	// per-query reference runtimes and the golden file); oracleEvents the
	// prefix of it the brute-force oracle enumerates (0: too many queries).
	checkEvents  int
	oracleEvents int
	cfg          cep.SessionConfig
	// queries builds the whole query set — patterns, planner statistics,
	// algorithms — from structureSeed alone; the first base of them are
	// registered before Start, the rest arrive through ops.
	queries func() ([]cep.QueryConfig, error)
	base    int
	// stream draws n events from seed; ops places the churn operations on
	// a stream of n events (nil: none).
	stream func(seed int64, n int) []*cep.Event
	ops    func(n int) []churnOp

	once sync.Once
	all  []cep.QueryConfig
	err  error
}

// churnOp is one control-plane operation of a workload, applied between
// two batches: before the event at index at is submitted, query all[query]
// is added (add) or removed.
type churnOp struct {
	at    int
	query int
	add   bool
}

// instance is a generated workload: the stream, the session configuration
// and the query set. all[:base] is registered before Start; the rest are
// brought in (and base queries taken out) by ops.
type instance struct {
	spec   *spec
	stream []*cep.Event
	cfg    cep.SessionConfig
	all    []cep.QueryConfig
	base   int
	ops    []churnOp
}

// build generates the workload's inputs: the seed-independent query set
// (built once per process and shared read-only, as patterns and statistics
// are immutable) and a stream of n events drawn from seed.
func (sp *spec) build(seed int64, n int) (*instance, error) {
	sp.once.Do(func() { sp.all, sp.err = sp.queries() })
	if sp.err != nil {
		return nil, fmt.Errorf("%s: queries: %w", sp.name, sp.err)
	}
	in := &instance{spec: sp, stream: sp.stream(seed, n), cfg: sp.cfg, all: sp.all, base: sp.base}
	if in.base == 0 {
		in.base = len(in.all)
	}
	if sp.ops != nil {
		in.ops = sp.ops(n)
	}
	return in, nil
}

var specs = []*spec{
	{
		name: "paper_mix",
		why: "the paper's section 7 mix: 8 unshared queries of the five categories, half on the tree engine, half on the NFA; " +
			"plan quality and the two single-query engines do nearly all the work",
		repEvents: 1_400_000, shortEvents: 8192, pacedRate: 230_000, checkEvents: 6000, oracleEvents: 1500,
		queries: paperMixQueries,
		stream:  func(seed int64, n int) []*cep.Event { return stockStream(paperMixRates, seed, n) },
	},
	{
		name: "shared_64",
		why: "64 overlapping queries in 4 sharing families on the mqo DAG with multi-consumer fan-out and a high match rate; " +
			"created and emitted instances dominate, probes are cheap",
		repEvents: 1_000_000, shortEvents: 8192, pacedRate: 160_000, checkEvents: 6000, oracleEvents: 1000,
		cfg:     cep.SessionConfig{QueueLen: 1024, ShareSubplans: true, FilterIndex: true},
		queries: shared64Queries,
		stream:  func(seed int64, n int) []*cep.Event { return stockStream(shared64Rates, seed, n) },
	},
	{
		name: "selective_1k",
		why: "1000 selective two-term queries behind the filter index: filterindex matching and pool hand-off to ~1000 lanes " +
			"are the work, engines are nearly idle; also the heaviest setup",
		repEvents: 3_900_000, shortEvents: 16384, pacedRate: 740_000, checkEvents: 8000, oracleEvents: 0,
		cfg:     cep.SessionConfig{QueueLen: 64, FilterIndex: true},
		queries: selective1kQueries, stream: selective1kStream,
	},
	{
		name: "keyed_join",
		why: "16 keyed three-way joins on one lane with long buffers: nested-loop probing and sweep expiry in mqo.Engine are " +
			"almost all of the CPU (probes >> created); routing and hand-off are negligible",
		repEvents: 420_000, shortEvents: 8192, pacedRate: 68_000, checkEvents: 8000, oracleEvents: 1500,
		cfg:     cep.SessionConfig{QueueLen: 1024, ShareSubplans: true, FilterIndex: true},
		queries: keyedJoinQueries,
		stream:  func(seed int64, n int) []*cep.Event { return keyedStream(seed, n, keyedJoinShare) },
	},
	{
		name: "churn_all",
		why: "32 keyed+unkeyed shareable queries with sharing, index, 2 partition lanes and adaptivity on, a rate regime flip " +
			"and 24 AddQuery/RemoveQuery splices: control-plane cost beside the data plane",
		repEvents: 550_000, shortEvents: 12288, pacedRate: 90_000, checkEvents: 10000, oracleEvents: 1000,
		cfg: cep.SessionConfig{
			QueueLen: 1024, ShareSubplans: true, FilterIndex: true, PartitionWorkers: 2,
			Adaptive: &cep.AdaptiveSessionConfig{},
		},
		queries: churnAllQueries, base: churnBase, ops: churnAllOps,
		stream: func(seed int64, n int) []*cep.Event {
			return keyedStream(seed, n, func(i int) [4]float64 { return churnShare(i, n) })
		},
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// stockRates is a fixed stock universe: 32 symbols whose arrival rates are
// drawn log-uniformly from [min, max] events/s by structureSeed.
type stockRates struct{ min, max float64 }

var (
	paperMixRates = stockRates{1, 6}
	shared64Rates = stockRates{1, 20}
)

func (r stockRates) universe(seed int64, n int) *workload.Stocks {
	st := workload.NewStocks(workload.StockConfig{
		Symbols: 32, Seed: structureSeed, MinRate: r.min, MaxRate: r.max,
	})
	// NewStocks drew the rates from structureSeed; Generate draws the events
	// from Config.Seed.
	st.Config.Seed, st.Config.Events = seed, n
	return st
}

// stockStream draws n stock ticks from seed. Seeds are offset so that no
// -seed replays the history the planner statistics were measured on.
func stockStream(r stockRates, seed int64, n int) []*cep.Event {
	return r.universe(seed+1000, n).Generate()
}

func (r stockRates) history() (*workload.Stocks, []*cep.Event) {
	st := r.universe(structureSeed, historyEvents)
	return st, st.Generate()
}

// paperMixQueries: 8 unshared queries over the stock universe, one or two
// per category of the paper, sizes 3-5, alternating DP-B (tree engine) and
// DP-LD (NFA).
func paperMixQueries() ([]cep.QueryConfig, error) {
	const window = 4 * cep.Second
	stocks, history := paperMixRates.history()
	shapes := []struct {
		cat  workload.Category
		size int
		alg  string
	}{
		{workload.CatSequence, 3, cep.AlgDPB},
		{workload.CatSequence, 5, cep.AlgDPLD},
		{workload.CatConjunction, 3, cep.AlgDPLD},
		{workload.CatConjunction, 3, cep.AlgDPB},
		{workload.CatNegation, 5, cep.AlgDPB},
		{workload.CatNegation, 3, cep.AlgDPLD},
		{workload.CatKleene, 3, cep.AlgDPLD},
		{workload.CatDisjunction, 3, cep.AlgDPB},
	}
	rng := rand.New(rand.NewSource(structureSeed))
	var out []cep.QueryConfig
	for i, sh := range shapes {
		p := stocks.Pattern(sh.cat, sh.size, window, rng)
		out = append(out, cep.QueryConfig{
			Name: fmt.Sprintf("q%d_%s%d", i, sh.cat, sh.size), Pattern: p,
			Stats: cep.Measure(history, p), Algorithm: sh.alg, MaxKleeneBase: 6,
		})
	}
	return out, nil
}

// shared64Queries: 64 overlapping queries in 4 sharing families (SEQ3, SEQ4,
// AND3, SEQ3 over a second hot pair), each family extending one hot pair
// with cycling tails; every fourth query carries a negated term.
func shared64Queries() ([]cep.QueryConfig, error) {
	const window = 1500 * cep.Millisecond
	stocks, history := shared64Rates.history()
	bySpeed := append([]string(nil), stocks.Symbols...)
	sort.Slice(bySpeed, func(i, j int) bool { return stocks.Rates[bySpeed[i]] > stocks.Rates[bySpeed[j]] })
	tails := bySpeed[4:]
	var out []cep.QueryConfig
	for i := 0; i < 64; i++ {
		fam := i / 16
		a, b := bySpeed[0], bySpeed[1]
		if fam == 3 {
			a, b = bySpeed[2], bySpeed[3]
		}
		c := tails[i%len(tails)]
		d := tails[(i+7)%len(tails)]
		neg := ""
		if i%4 == 3 {
			neg = fmt.Sprintf("NOT(%s n), ", tails[(i+1)%len(tails)])
		}
		var src string
		switch fam {
		case 1:
			src = fmt.Sprintf(`PATTERN SEQ(%s a, %s b, %s%s c, %s d)
				WHERE a.bucket = b.bucket AND a.difference < b.difference AND b.difference < c.difference AND c.bucket = d.bucket
				WITHIN %d ms`, a, b, neg, c, d, window)
		case 2:
			src = fmt.Sprintf(`PATTERN AND(%s a, %s b, %s c)
				WHERE a.bucket = b.bucket AND a.difference < b.difference AND b.difference < c.difference
				WITHIN %d ms`, a, b, c, window)
		default:
			src = fmt.Sprintf(`PATTERN SEQ(%s a, %s b, %s%s c)
				WHERE a.bucket = b.bucket AND a.difference < b.difference AND b.difference < c.difference
				WITHIN %d ms`, a, b, neg, c, window)
		}
		p, err := cep.ParsePatternWith(src, stocks.Registry)
		if err != nil {
			return nil, err
		}
		out = append(out, cep.QueryConfig{Name: fmt.Sprintf("q%02d", i), Pattern: p, Stats: cep.Measure(history, p)})
	}
	return out, nil
}

// selective_1k: 1000 two-term SEQ queries over 16 types with constant
// equality / range-band predicates on v in [0,400) — the cepbench
// "-fig index" shape at 1000 queries.
const (
	selTypes = 16
	selVCard = 400
)

var selSchemas = func() []*cep.Schema {
	out := make([]*cep.Schema, selTypes)
	for i := range out {
		out[i] = cep.NewSchema(fmt.Sprintf("T%02d", i), "v")
	}
	return out
}()

func selective1kStream(seed int64, n int) []*cep.Event {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]*cep.Event, n)
	for i := range stream {
		stream[i] = cep.NewEvent(selSchemas[rng.Intn(selTypes)], cep.Time(i+1), float64(rng.Intn(selVCard)))
	}
	return cep.Stamp(stream)
}

func selective1kQueries() ([]cep.QueryConfig, error) {
	const window = 4000 * cep.Millisecond
	qrng := rand.New(rand.NewSource(structureSeed))
	var out []cep.QueryConfig
	for i := 0; i < 1000; i++ {
		ta := selSchemas[qrng.Intn(selTypes)].Name()
		tb := selSchemas[qrng.Intn(selTypes)].Name()
		p := cep.Seq(window, cep.E(ta, "a"), cep.E(tb, "b"))
		if i%4 == 3 {
			lo := float64(qrng.Intn(selVCard - 10))
			p = p.Where(
				cep.Cmp(cep.Ref("a", "v"), cep.Ge, cep.Const(lo)),
				cep.Cmp(cep.Ref("a", "v"), cep.Lt, cep.Const(lo+10)),
				cep.Cmp(cep.Ref("b", "v"), cep.Eq, cep.Const(float64(qrng.Intn(selVCard)))),
			)
		} else {
			p = p.Where(
				cep.Cmp(cep.Ref("a", "v"), cep.Eq, cep.Const(float64(qrng.Intn(selVCard)))),
				cep.Cmp(cep.Ref("b", "v"), cep.Eq, cep.Const(float64(qrng.Intn(selVCard)))),
			)
		}
		// Stats stay nil: two-term plans have one shape.
		out = append(out, cep.QueryConfig{Name: fmt.Sprintf("q%04d", i), Pattern: p})
	}
	return out, nil
}

// The keyed universe is shared by keyed_join and churn_all: head types A, B
// (keyed family) and C, D (unkeyed family) plus eight tail types, all with
// a join key k and a value v.
const (
	keyedTails = 8
	keyedKCard = 64 // join-key cardinality: ~1/64 of probes pair up
	keyedVCard = 10
)

var keyedHeads, keyedTailSchemas = func() (heads, tails []*cep.Schema) {
	for _, h := range []string{"A", "B", "C", "D"} {
		heads = append(heads, cep.NewSchema(h, "k", "v"))
	}
	for i := 0; i < keyedTails; i++ {
		tails = append(tails, cep.NewSchema(fmt.Sprintf("T%d", i), "k", "v"))
	}
	return heads, tails
}()

// keyedStream draws n events, 1 ms apart. headShare(i) gives the cumulative
// probability thresholds of the head types A, B, C, D at stream index i;
// the remainder goes uniformly to the tails.
func keyedStream(seed int64, n int, headShare func(i int) [4]float64) []*cep.Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cep.Event, n)
	for i := range out {
		cum := headShare(i)
		r := rng.Float64()
		s := keyedTailSchemas[rng.Intn(keyedTails)]
		for h, c := range cum {
			if r < c {
				s = keyedHeads[h]
				break
			}
		}
		out[i] = cep.NewEvent(s, cep.Time(i+1), float64(rng.Intn(keyedKCard)), float64(rng.Intn(keyedVCard)))
	}
	return cep.Stamp(out)
}

// keyedQuery is SEQ(h1, h2, tail) chained by k-equality, with v-order
// predicates and a per-query constant bound on the tail.
func keyedQuery(window cep.Time, h1, h2, tail string, bound int) *cep.Pattern {
	return cep.Seq(window, cep.E(h1, "a"), cep.E(h2, "b"), cep.E(tail, "c")).Where(
		cep.AttrCmp("a", "k", cep.Eq, "b", "k"),
		cep.AttrCmp("b", "k", cep.Eq, "c", "k"),
		cep.AttrCmp("a", "v", cep.Lt, "b", "v"),
		cep.AttrCmp("b", "v", cep.Lt, "c", "v"),
		cep.Cmp(cep.Ref("c", "v"), cep.Ge, cep.Const(float64(bound))),
	)
}

// unkeyedQuery is SEQ(h1, h2, tail) whose k-equality covers only the head
// pair: no equi-join key spans all positions, so its component cannot be
// key-partitioned.
func unkeyedQuery(window cep.Time, h1, h2, tail string, bound int) *cep.Pattern {
	return cep.Seq(window, cep.E(h1, "a"), cep.E(h2, "b"), cep.E(tail, "c")).Where(
		cep.AttrCmp("a", "k", cep.Eq, "b", "k"),
		cep.AttrCmp("a", "v", cep.Lt, "b", "v"),
		cep.AttrCmp("b", "v", cep.Lt, "c", "v"),
		cep.Cmp(cep.Ref("c", "v"), cep.Ge, cep.Const(float64(bound))),
	)
}

// keyed_join: 16 keyed queries a.k=b.k AND b.k=c.k over a quiet A/B head
// pair (5 % of the stream each) and eight hot tails, wide window, ONE lane
// (PartitionWorkers 0) — the cepbench "-fig partition" shape at p1.
func keyedJoinShare(int) [4]float64 { return [4]float64{0.05, 0.10, 0, 0} }

func keyedJoinQueries() ([]cep.QueryConfig, error) {
	const window = 6000 * cep.Millisecond
	history := keyedStream(structureSeed, historyEvents, keyedJoinShare)
	var out []cep.QueryConfig
	for i := 0; i < 16; i++ {
		p := keyedQuery(window, "A", "B", keyedTailSchemas[i%keyedTails].Name(), 6+(i/keyedTails)%3)
		out = append(out, cep.QueryConfig{Name: fmt.Sprintf("q%02d", i), Pattern: p, Stats: cep.Measure(history, p)})
	}
	return out, nil
}

// churn_all: 16 keyed (A,B,tail) + 16 unkeyed (C,D,tail) queries with every
// session feature on. The head rates flip at 25 % of the stream (A and C
// turn hot), and churnOps evenly spaced operations alternately add one of
// churnOps/2 extra queries and remove one of the base queries.
const (
	churnBase = 32
	churnOps  = 24
)

var (
	churnRegime1 = [4]float64{0.04, 0.08, 0.12, 0.16}
	churnRegime2 = [4]float64{0.40, 0.44, 0.74, 0.78}
)

func churnShare(i, n int) [4]float64 {
	if i < n/4 {
		return churnRegime1
	}
	return churnRegime2
}

func churnAllQueries() ([]cep.QueryConfig, error) {
	const window = 4000 * cep.Millisecond
	// Statistics come from the first regime: the initial plans are right
	// until the flip, then the drift detector has something to find.
	history := keyedStream(structureSeed, historyEvents, func(int) [4]float64 { return churnRegime1 })
	var out []cep.QueryConfig
	add := func(name string, p *cep.Pattern) {
		out = append(out, cep.QueryConfig{Name: name, Pattern: p, Stats: cep.Measure(history, p)})
	}
	for i := 0; i < churnBase/2; i++ {
		tail := keyedTailSchemas[i%keyedTails].Name()
		add(fmt.Sprintf("k%02d", i), keyedQuery(window, "A", "B", tail, 5+(i/keyedTails)%2))
		add(fmt.Sprintf("u%02d", i), unkeyedQuery(window/2, "C", "D", tail, 8+(i/keyedTails)%2))
	}
	for i := 0; i < churnOps/2; i++ {
		tail := keyedTailSchemas[(i*3)%keyedTails].Name()
		if i%2 == 0 {
			add(fmt.Sprintf("xk%02d", i), keyedQuery(window, "A", "B", tail, 7))
		} else {
			add(fmt.Sprintf("xu%02d", i), unkeyedQuery(window/2, "C", "D", tail, 7))
		}
	}
	return out, nil
}

func churnAllOps(n int) []churnOp {
	var ops []churnOp
	for i := 0; i < churnOps; i++ {
		at := (i + 1) * n / (churnOps + 1) / batchSize * batchSize
		if i%2 == 0 {
			ops = append(ops, churnOp{at: at, query: churnBase + i/2, add: true})
		} else {
			ops = append(ops, churnOp{at: at, query: (i / 2) * 5 % churnBase})
		}
	}
	return ops
}
