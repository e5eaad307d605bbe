// Package match defines the full-pattern-match type shared by the NFA and
// tree evaluation engines and the brute-force oracle.
package match

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
)

// Match is one full pattern match: the events bound to each term position of
// the compiled pattern. Negated positions are nil; Kleene positions may hold
// more than one event; ordinary positions hold exactly one. Prov is nil
// unless the emitting engine runs with provenance enabled.
//
// The engines emit matches from an Arena: a delivered match is never
// reused, so a caller may keep it as long as it likes; a retained match
// keeps its arena chunk (the matches emitted beside it) alive. Only the
// slice an engine returns its matches in is reused by the next call.
type Match struct {
	Positions [][]*event.Event
	Prov      *Prov
}

// Prov is the provenance record attached to an emitted match when tracing
// provenance is enabled: which stream sequence numbers composed the match
// (aligned index-for-index with Events()), which lane/partition/component
// emitted it and under which splice generation, and the submit→emit
// latency of the event that completed it. Seqs is nil for engines that do
// not thread sequence numbers (opaque detectors); LatencyNS is 0 for
// matches released by a window flush rather than by a live event.
type Prov struct {
	Seqs       []uint64 `json:"seqs,omitempty"`
	Lane       int      `json:"lane"`
	Partition  int      `json:"partition"`
	Component  int      `json:"component"`
	Generation int      `json:"generation"`
	LatencyNS  int64    `json:"latency_ns"`
}

// New builds a match over n term positions.
func New(n int) *Match {
	return &Match{Positions: make([][]*event.Event, n)}
}

// Arena hands out matches, position tables and flat event slots from
// chunks, so emission costs a few allocations per engine call instead of
// two or three per match. The chunks of one call double from arenaMin to
// arenaMax matches; Release drops them, so the next call starts a fresh,
// small chunk and nothing handed out is ever handed out again. The zero
// value is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	ms   []Match
	tabs [][]*event.Event
	evs  []*event.Event
	size int // matches in the current chunk; 0 before the first
}

const (
	arenaMin = 8
	arenaMax = 256
)

// New returns a match with a zeroed positions table of n entries.
func (a *Arena) New(n int) *Match {
	if len(a.ms) == 0 {
		a.size = min(max(2*a.size, arenaMin), arenaMax)
		a.ms = make([]Match, a.size)
	}
	m := &a.ms[0]
	a.ms = a.ms[1:]
	if len(a.tabs) < n {
		a.tabs = make([][]*event.Event, max(n*a.size, n))
	}
	m.Positions = a.tabs[:n:n]
	a.tabs = a.tabs[n:]
	return m
}

// Events returns n zeroed event slots, capacity-capped so that appending to
// them cannot write into slots handed out later.
func (a *Arena) Events(n int) []*event.Event {
	if len(a.evs) < n {
		a.evs = make([]*event.Event, max(n*max(a.size, arenaMin), n))
	}
	out := a.evs[:n:n]
	a.evs = a.evs[n:]
	return out
}

// Release drops the current chunks: everything handed out so far now
// belongs to the callers, and the next New starts a chunk of arenaMin.
func (a *Arena) Release() {
	a.ms, a.tabs, a.evs, a.size = nil, nil, nil, 0
}

// Events flattens the bound events in position order.
func (m *Match) Events() []*event.Event {
	var out []*event.Event
	for _, g := range m.Positions {
		out = append(out, g...)
	}
	return out
}

// MinTS returns the earliest timestamp in the match.
func (m *Match) MinTS() event.Time {
	first := true
	var min event.Time
	for _, g := range m.Positions {
		for _, e := range g {
			if first || e.TS < min {
				min, first = e.TS, false
			}
		}
	}
	return min
}

// MaxTS returns the latest timestamp in the match.
func (m *Match) MaxTS() event.Time {
	var max event.Time
	for _, g := range m.Positions {
		for _, e := range g {
			if e.TS > max {
				max = e.TS
			}
		}
	}
	return max
}

// Key returns a canonical fingerprint of the match: per-position sorted
// event serial numbers. Two matches binding the same events to the same
// positions have equal keys, which is how tests compare engine outputs.
func (m *Match) Key() string {
	var b strings.Builder
	for i, g := range m.Positions {
		if i > 0 {
			b.WriteByte('|')
		}
		serials := make([]int64, len(g))
		for j, e := range g {
			serials[j] = e.Serial
		}
		sort.Slice(serials, func(a, c int) bool { return serials[a] < serials[c] })
		for j, s := range serials {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
	}
	return b.String()
}

// KeySet builds the set of keys of a match list.
func KeySet(ms []*Match) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[m.Key()] = true
	}
	return out
}

// Diff reports keys present in a but not in b and vice versa; both empty
// means the match sets are identical.
func Diff(a, b []*Match) (onlyA, onlyB []string) {
	ka, kb := KeySet(a), KeySet(b)
	for k := range ka {
		if !kb[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range kb {
		if !ka[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}
