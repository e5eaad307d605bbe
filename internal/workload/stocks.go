// Package workload generates the synthetic counterpart of the paper's
// evaluation workload (Section 7.2): a stock-market tick stream — the paper
// used one year of NASDAQ updates with 80,509,033 events over 2,100+
// symbols — and the five pattern categories evaluated against it (pure
// sequences, sequences with negation, conjunctions, Kleene-closure
// sequences, and disjunctions of sequences).
//
// The real dataset is not redistributable; the generator reproduces the
// properties the algorithms actually consume: per-symbol arrival rates in
// the published 1–45 events/second range, random-walk prices with a
// precomputed `difference` attribute (the paper adds the same attribute in
// preprocessing), and predicate selectivities spanning a wide range via
// `difference` comparisons and discretised `bucket` equalities.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/event"
)

// StockConfig parameterises the generator. Zero values select the defaults.
type StockConfig struct {
	Symbols    int     // number of stock symbols (event types); default 32
	Events     int     // total events to generate; default 50000
	MinRate    float64 // slowest symbol, events/second; default 1 (paper's range)
	MaxRate    float64 // fastest symbol, events/second; default 45
	Volatility float64 // price-step standard deviation; default 1.0
	Buckets    int     // number of price buckets for equality predicates; default 10
	Seed       int64   // RNG seed; default 1
	// Partitions > 0 assigns each event a partition id per PartitionBy,
	// enabling the partition-contiguity strategy, per-partition planning and
	// sharded execution.
	Partitions int
	// PartitionBy selects the partitioning scheme when Partitions > 0.
	PartitionBy PartitionScheme
}

// PartitionScheme selects how generated events map to partitions.
type PartitionScheme int

const (
	// PartitionBySymbol assigns each symbol's events to partition
	// symbolIndex % Partitions (e.g. exchanges or shards). Patterns over
	// symbols from different residue classes never match, because matches
	// do not span partitions.
	PartitionBySymbol PartitionScheme = iota
	// PartitionByBucket assigns each event to partition bucket % Partitions,
	// co-locating every symbol in every partition: any pattern can match in
	// any partition, which is the workload shape for sharded-throughput
	// experiments. Set Buckets >= Partitions for full coverage.
	PartitionByBucket
)

func (c StockConfig) withDefaults() StockConfig {
	if c.Symbols <= 0 {
		c.Symbols = 32
	}
	if c.Events <= 0 {
		c.Events = 50000
	}
	if c.MinRate <= 0 {
		c.MinRate = 1
	}
	if c.MaxRate < c.MinRate {
		c.MaxRate = 45
	}
	if c.Volatility <= 0 {
		c.Volatility = 1.0
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stocks is a generated stock universe: symbols, their schemas and assigned
// arrival rates.
type Stocks struct {
	Config   StockConfig
	Symbols  []string
	Rates    map[string]float64
	Registry *event.Registry
	schemas  map[string]*event.Schema
}

// Attributes carried by every stock tick, mirroring the paper's record
// format (identifier is the event type; timestamp is Event.TS).
const (
	AttrPrice      = "price"
	AttrDifference = "difference"
	AttrBucket     = "bucket"
)

// NewStocks builds a stock universe with rates spread log-uniformly across
// [MinRate, MaxRate], deterministic in the seed.
func NewStocks(cfg StockConfig) *Stocks {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stocks{
		Config:  cfg,
		Rates:   make(map[string]float64, cfg.Symbols),
		schemas: make(map[string]*event.Schema, cfg.Symbols),
	}
	var schemas []*event.Schema
	for i := 0; i < cfg.Symbols; i++ {
		name := fmt.Sprintf("S%03d", i)
		s.Symbols = append(s.Symbols, name)
		// Log-uniform spread reproduces the skew of real symbol activity.
		logMin, logMax := math.Log(cfg.MinRate), math.Log(cfg.MaxRate)
		s.Rates[name] = math.Exp(logMin + rng.Float64()*(logMax-logMin))
		sc := event.NewSchema(name, AttrPrice, AttrDifference, AttrBucket)
		s.schemas[name] = sc
		schemas = append(schemas, sc)
	}
	s.Registry = event.NewRegistry(schemas...)
	return s
}

// Schema returns the schema of a symbol.
func (s *Stocks) Schema(symbol string) *event.Schema { return s.schemas[symbol] }

// Generate produces the tick stream: per-symbol Poisson arrivals at the
// assigned rate, random-walk prices, `difference` = price change, `bucket` =
// discretised price level. The merged stream is timestamp-ordered and
// serial-stamped; total length is Config.Events.
func (s *Stocks) Generate() []*event.Event {
	cfg := s.Config
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	totalRate := 0.0
	for _, r := range s.Rates {
		totalRate += r
	}
	// Horizon long enough that expected event count slightly exceeds the
	// target; the merged stream is truncated to the exact count.
	horizonSec := float64(cfg.Events) / totalRate * 1.05
	perSymbol := make([][]*event.Event, 0, len(s.Symbols))
	for symIdx, sym := range s.Symbols {
		rate := s.Rates[sym]
		sc := s.schemas[sym]
		price := 50 + rng.Float64()*100
		var evs []*event.Event
		t := 0.0
		for {
			t += rng.ExpFloat64() / rate
			if t > horizonSec {
				break
			}
			step := rng.NormFloat64() * cfg.Volatility
			price += step
			if price < 1 {
				price = 1
			}
			bucket := math.Mod(math.Floor(price), float64(cfg.Buckets))
			if bucket < 0 {
				bucket += float64(cfg.Buckets)
			}
			ev := event.New(sc, event.Time(t*float64(event.Second)), price, step, bucket)
			if cfg.Partitions > 0 {
				switch cfg.PartitionBy {
				case PartitionByBucket:
					ev.Partition = int(bucket) % cfg.Partitions
				default:
					ev.Partition = symIdx % cfg.Partitions
				}
			}
			evs = append(evs, ev)
		}
		perSymbol = append(perSymbol, evs)
	}
	merged := event.Merge(perSymbol...)
	if len(merged) > cfg.Events {
		merged = merged[:cfg.Events]
	}
	return event.Drain(event.NewSliceStream(merged))
}

// ResetStream clears consumption marks and restamps serials so that the
// same event slice can be replayed across engine runs.
func ResetStream(events []*event.Event) []*event.Event {
	st := event.NewSliceStream(events)
	st.Reset()
	return event.Drain(st)
}
