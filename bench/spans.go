package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// rawEvery is the sampling period of raw spans: every span is aggregated
// per layer, and the spans of one batch in rawEvery are kept verbatim.
const rawEvery = 64

// span is one timed call into a layer, as written to trace_<workload>.json.
// Start and End are nanoseconds since the log was created; Parent is the
// index of the enclosing span in Raw (-1 for a batch root); Batch is the
// request identifier all spans of one SubmitBatch-sized step share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

type spanAgg struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is TotalNS minus the part covered by child spans (only the
	// batch root has children: its self time is the replay's own glue).
	SelfNS int64 `json:"self_ns"`
}

// spanLog keeps spans in memory; write puts them on disk when the
// benchmark ends. A nil *spanLog records nothing.
type spanLog struct {
	origin   time.Time
	agg      map[string]*spanAgg
	raw      []span
	pending  []int // raw spans of the current sampled batch awaiting their root
	children int64 // child time inside the current batch
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), agg: map[string]*spanAgg{}}
}

func (l *spanLog) sampled(batch int) bool { return l != nil && batch%rawEvery == 0 }

func (l *spanLog) bump(name string, d time.Duration) *spanAgg {
	a := l.agg[name]
	if a == nil {
		a = &spanAgg{Name: name}
		l.agg[name] = a
	}
	a.Count++
	a.TotalNS += int64(d)
	return a
}

// add records a layer span inside the current batch.
func (l *spanLog) add(name string, start time.Time, d time.Duration, batch int, raw bool) {
	if l == nil {
		return
	}
	l.bump(name, d).SelfNS += int64(d)
	l.children += int64(d)
	if raw {
		s0 := int64(start.Sub(l.origin))
		l.pending = append(l.pending, len(l.raw))
		l.raw = append(l.raw, span{Name: name, Start: s0, End: s0 + int64(d), Parent: -1, Batch: batch})
	}
}

// addLoose records a span outside any batch (a churn splice); always raw.
func (l *spanLog) addLoose(name string, start time.Time, d time.Duration, batch int) {
	if l == nil {
		return
	}
	l.bump(name, d).SelfNS += int64(d)
	s0 := int64(start.Sub(l.origin))
	l.raw = append(l.raw, span{Name: name, Start: s0, End: s0 + int64(d), Parent: -1, Batch: batch})
}

// addRoot closes the current batch: the root span becomes the parent of the
// layer spans recorded since the previous root.
func (l *spanLog) addRoot(name string, start time.Time, d time.Duration, batch int, raw bool) {
	if l == nil {
		return
	}
	l.bump(name, d).SelfNS += int64(d) - l.children
	l.children = 0
	if raw {
		s0 := int64(start.Sub(l.origin))
		root := len(l.raw)
		l.raw = append(l.raw, span{Name: name, Start: s0, End: s0 + int64(d), Parent: -1, Batch: batch})
		for _, i := range l.pending {
			l.raw[i].Parent = root
		}
	}
	l.pending = l.pending[:0]
}

// write stores the log as JSON: per-layer aggregates plus the sampled raw
// batches.
func (l *spanLog) write(path, workload string) error {
	aggs := make([]*spanAgg, 0, len(l.agg))
	for _, a := range l.agg {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].Name < aggs[j].Name })
	blob, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		RawEvery int        `json:"raw_every"`
		Layers   []*spanAgg `json:"layers"`
		Raw      []span     `json:"raw"`
	}{workload, rawEvery, aggs, l.raw}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
