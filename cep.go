// Package cep is a complex event processing library with join-query-style
// plan optimisation, reproducing Kolchinsky & Schuster, "Join Query
// Optimization Techniques for Complex Event Processing Applications"
// (VLDB 2018).
//
// The library detects declarative patterns — sequences, conjunctions,
// disjunctions, negation and Kleene closure over typed event streams with
// pairwise predicates and sliding windows — using either a lazy chain NFA
// (order-based plans) or a ZStream-style instance tree (tree-based plans).
// The evaluation plan is chosen by one of eight plan-generation algorithms,
// six of which are classic join-ordering techniques adapted to CEP per the
// paper: greedy ordering, iterative improvement, and Selinger dynamic
// programming over left-deep and bushy plan spaces.
//
// Every runtime flavor — Runtime, AdaptiveRuntime, PartitionedRuntime,
// ShardedRuntime — satisfies the unified Detector contract
// (Process/Flush/Close with errors, no panics on bad input). The front door
// for serving is Session: register any number of named queries, each with
// its own declarative QueryConfig, stream one feed through all of them with
// context-aware cancellation and bounded queues, and receive matches on
// per-query sinks tagged with the query name.
//
// Quick start:
//
//	p, _ := cep.ParsePattern(`PATTERN SEQ(Login l, Trade t, Alert a)
//	                          WHERE l.user = t.user AND t.user = a.user
//	                          WITHIN 10 s`)
//	s := cep.NewSession(cep.SessionConfig{
//	    OnMatch: func(query string, m *cep.Match) {
//	        fmt.Println(query, "matched:", m.Events())
//	    },
//	})
//	s.Register(cep.QueryConfig{
//	    Name:      "laundering",
//	    Pattern:   p,
//	    Stats:     cep.Measure(history, p), // arrival rates + selectivities
//	    Algorithm: cep.AlgDPB,
//	})
//	s.Run(context.Background(), cep.NewStream(liveEvents))
//	s.Close()
//
// For one pattern on one goroutine, cep.New (or cep.NewFromConfig) builds a
// plain Runtime with the same Detector contract.
package cep

import (
	"repro/internal/event"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/stats"
)

// Core data types, re-exported from the internal packages.
type (
	// Event is a primitive event: a typed, timestamped attribute tuple.
	Event = event.Event
	// Schema names the attributes of one event type.
	Schema = event.Schema
	// Registry is a catalogue of event schemas.
	Registry = event.Registry
	// Time is a timestamp or duration in milliseconds.
	Time = event.Time
	// Pattern is the AST of a CEP pattern.
	Pattern = pattern.Pattern
	// Condition is one WHERE-clause predicate.
	Condition = pattern.Condition
	// Operand is one side of a condition.
	Operand = pattern.Operand
	// Term is an operand of an n-ary pattern operator.
	Term = pattern.Term
	// CmpOp is a comparison operator.
	CmpOp = pattern.CmpOp
	// Match is a detected full pattern match.
	Match = match.Match
	// Stats holds measured arrival rates and predicate selectivities.
	Stats = stats.Stats
	// Strategy is an event selection strategy (Section 6.2 of the paper).
	Strategy = predicate.Strategy
)

// Time units.
const (
	Millisecond = event.Millisecond
	Second      = event.Second
	Minute      = event.Minute
)

// Comparison operators for conditions.
const (
	Lt = pattern.Lt
	Le = pattern.Le
	Eq = pattern.Eq
	Ne = pattern.Ne
	Ge = pattern.Ge
	Gt = pattern.Gt
)

// Event selection strategies.
const (
	SkipTillAnyMatch    = predicate.SkipTillAnyMatch
	SkipTillNextMatch   = predicate.SkipTillNextMatch
	StrictContiguity    = predicate.StrictContiguity
	PartitionContiguity = predicate.PartitionContiguity
)

// NewSchema declares an event type with the given attribute names.
func NewSchema(name string, attrs ...string) *Schema { return event.NewSchema(name, attrs...) }

// NewRegistry builds a schema catalogue.
func NewRegistry(schemas ...*Schema) *Registry { return event.NewRegistry(schemas...) }

// NewEvent builds an event of the schema at the timestamp.
func NewEvent(s *Schema, ts Time, values ...float64) *Event { return event.New(s, ts, values...) }

// Stamp validates timestamp order on a hand-built event slice and stamps
// serial numbers.
func Stamp(events []*Event) []*Event {
	return event.Drain(event.NewSliceStream(events))
}

// NewStream wraps a timestamp-sorted event slice as an EventSource for
// Runtime.ProcessStream, stamping serial numbers as events are pulled.
func NewStream(events []*Event) EventSource {
	return event.NewSliceStream(events)
}

// Pattern constructors (programmatic alternative to ParsePattern).
var (
	// Seq builds a sequence pattern.
	Seq = pattern.Seq
	// And builds a conjunctive pattern.
	And = pattern.And
	// Or builds a disjunctive pattern.
	Or = pattern.Or
	// E declares a positive primitive event term.
	E = pattern.E
	// Not declares a negated event term.
	Not = pattern.Not
	// KL declares a Kleene-closure event term.
	KL = pattern.KL
	// Sub nests a subpattern as a term.
	Sub = pattern.Sub
	// AttrCmp builds the condition "a.x OP b.y".
	AttrCmp = pattern.AttrCmp
	// Cmp builds a condition from operands.
	Cmp = pattern.Cmp
	// Ref builds an attribute-reference operand.
	Ref = pattern.Ref
	// Const builds a constant operand.
	Const = pattern.Const
	// TSOrder builds the temporal-order condition a.ts < b.ts.
	TSOrder = pattern.TSOrder
)

// ParsePattern parses the SASE-style textual pattern syntax:
//
//	PATTERN SEQ(A a, NOT(B b), KL(C c), OR(D d, E e))
//	WHERE a.x < c.x AND c.y = d.y
//	WITHIN 20 minutes
func ParsePattern(src string) (*Pattern, error) { return parser.Parse(src) }

// ParsePatternWith parses and validates types/attributes against a registry.
func ParsePatternWith(src string, reg *Registry) (*Pattern, error) {
	return parser.ParseWith(src, reg)
}

// NewStats returns an empty statistics bundle with neutral defaults; set
// rates and selectivities by hand when no history is available.
func NewStats() *Stats { return stats.New() }

// Measure computes arrival rates and the pattern's predicate selectivities
// from a historical event slice — the paper's preprocessing stage.
func Measure(events []*Event, p *Pattern) *Stats {
	return stats.MeasurePattern(events, p)
}
