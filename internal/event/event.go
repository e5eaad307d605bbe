// Package event defines the primitive-event model shared by every component
// of the CEP engine: typed events with numeric attributes, per-type schemas,
// and timestamp-ordered streams.
//
// The model follows Section 2.1 of Kolchinsky & Schuster (VLDB 2018): each
// event has a well-defined type, a set of attributes, and an occurrence
// timestamp. Serial numbers (global and per-partition) are stamped on ingest
// so that the strict- and partition-contiguity selection strategies of
// Section 6.2 can be expressed as ordinary predicates.
package event

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a timestamp or duration in milliseconds. Streams are assumed to be
// ordered by timestamp; plan-induced "out of order" processing refers to the
// order in which event *types* are matched, not to stream disorder.
type Time = int64

// Millisecond, Second and Minute are convenience multipliers for Time values.
const (
	Millisecond Time = 1
	Second      Time = 1000
	Minute      Time = 60 * Second
)

// Schema describes the attributes carried by events of one type. Attribute
// values are float64; string-typed domain values (e.g. stock symbols) are
// modelled as distinct event types, exactly as the paper's evaluation does
// ("for each identifier, a separate event type was defined").
type Schema struct {
	name  string
	attrs []string
	index map[string]int
}

// NewSchema builds a schema for the event type name with the given attribute
// names. Attribute order is significant: it is the layout of Event.Attrs.
func NewSchema(name string, attrs ...string) *Schema {
	s := &Schema{
		name:  name,
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if _, dup := s.index[a]; dup {
			panic(fmt.Sprintf("event: duplicate attribute %q in schema %q", a, name))
		}
		s.index[a] = i
	}
	return s
}

// Name returns the event-type name the schema describes.
func (s *Schema) Name() string { return s.name }

// Attrs returns the attribute names in layout order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Index returns the position of attribute name and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Event is a single primitive event. Events are immutable once ingested;
// engines share them by pointer.
type Event struct {
	// Type is the event-type name. It must match the Schema's name.
	Type string
	// TS is the occurrence timestamp in milliseconds.
	TS Time
	// Serial is the global arrival serial number, stamped by the stream.
	Serial int64
	// Partition is the partition identifier used by the partition-contiguity
	// selection strategy; 0 when unpartitioned.
	Partition int
	// PSerial is the per-partition serial number, stamped by the stream.
	PSerial int64
	// Attrs holds the attribute values in Schema layout order.
	Attrs []float64
	// Schema describes Attrs. It may be shared between many events.
	Schema *Schema

	// consumed marks the event as used by a full match under the
	// skip-till-next-match selection strategy.
	consumed bool
}

// New constructs an event of the given schema. The number of values must
// match the schema's attribute count.
func New(s *Schema, ts Time, values ...float64) *Event {
	if len(values) != s.NumAttrs() {
		panic(fmt.Sprintf("event: type %q expects %d attributes, got %d",
			s.Name(), s.NumAttrs(), len(values)))
	}
	return &Event{Type: s.Name(), TS: ts, Attrs: append([]float64(nil), values...), Schema: s}
}

// Attr returns the value of the named attribute and whether it exists.
// The pseudo-attributes "ts", "serial" and "pserial" are always available,
// exposing the timestamp and contiguity serials to the predicate layer.
func (e *Event) Attr(name string) (float64, bool) {
	switch name {
	case "ts":
		return float64(e.TS), true
	case "serial":
		return float64(e.Serial), true
	case "pserial":
		return float64(e.PSerial), true
	case "partition":
		return float64(e.Partition), true
	}
	if e.Schema != nil {
		if i, ok := e.Schema.Index(name); ok {
			return e.Attrs[i], true
		}
	}
	return 0, false
}

// MustAttr returns the value of the named attribute, panicking if absent.
func (e *Event) MustAttr(name string) float64 {
	v, ok := e.Attr(name)
	if !ok {
		panic(fmt.Sprintf("event: type %q has no attribute %q", e.Type, name))
	}
	return v
}

// Consumed reports whether the event was consumed by a full match under
// skip-till-next-match.
func (e *Event) Consumed() bool { return e.consumed }

// Consume marks the event as consumed. It is called by the engines when a
// full match is emitted under skip-till-next-match.
func (e *Event) Consume() { e.consumed = true }

// String renders the event compactly for debugging and logs.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d{", e.Type, e.TS)
	if e.Schema != nil {
		for i, a := range e.Schema.attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%g", a, e.Attrs[i])
		}
	}
	b.WriteString("}")
	return b.String()
}

// Registry maps type names to schemas. It is the catalogue handed to parsers,
// statistics collectors and engines.
type Registry struct {
	schemas map[string]*Schema
}

// NewRegistry builds a registry from the given schemas.
func NewRegistry(schemas ...*Schema) *Registry {
	r := &Registry{schemas: make(map[string]*Schema, len(schemas))}
	for _, s := range schemas {
		r.Register(s)
	}
	return r
}

// Register adds a schema, replacing any previous schema with the same name.
func (r *Registry) Register(s *Schema) { r.schemas[s.Name()] = s }

// Lookup returns the schema for the type name.
func (r *Registry) Lookup(name string) (*Schema, bool) {
	s, ok := r.schemas[name]
	return s, ok
}

// Types returns the registered type names in sorted order.
func (r *Registry) Types() []string {
	names := make([]string, 0, len(r.schemas))
	for n := range r.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered types.
func (r *Registry) Len() int { return len(r.schemas) }

// minLogCap is the smallest backing array AppendLog allocates.
const minLogCap = 8

// AppendLog appends ev to an append-only event log: a buffer whose front is
// trimmed by reslicing (buf[i:]) as events expire and whose entries are
// never overwritten, so one-entry subslices buf[i:i+1:i+1] stay valid as
// event groups for as long as anyone holds them. Front trimming shrinks
// the capacity plain append would grow from; AppendLog instead grows to at
// least twice the live length and minLogCap, so a short log reallocates
// once per many appends, not on nearly every one.
func AppendLog(buf []*Event, ev *Event) []*Event {
	if len(buf) == cap(buf) {
		grown := make([]*Event, len(buf), max(2*len(buf), minLogCap))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, ev)
}
