package cep

import (
	"sync"
	"testing"
)

// TestSessionRetainedMatchesIntact keeps every match a retaining OnMatch
// sink receives — from a private NFA lane, a private tree lane, a shared
// DAG lane with a trailing-negation member and two key-partition lanes —
// across a few hundred batches, and checks after Flush that each match
// still has the key it had on delivery: no engine reuses an arena chunk or
// a pooled table under a delivered match.
func TestSessionRetainedMatchesIntact(t *testing.T) {
	stream := regimeShiftStream(5, map[string]float64{"A": 4, "B": 4, "T1": 4, "T2": 4}, nil, 1000*Second, 0)
	for i, ev := range stream {
		ev.Serial = int64(i + 1) // match keys are built from serials
	}
	history := stream[:len(stream)/4]

	queries := keyedTailQueries(t, history, 2)
	add := func(name, alg string, p *Pattern) {
		queries = append(queries, QueryConfig{Name: name, Pattern: p, Stats: Measure(history, p), Algorithm: alg})
	}
	// Kleene closure is sharing-ineligible, so these two run on private
	// lanes: one planned as an order (NFA), one as a tree.
	add("nfa", AlgGreedy, Seq(Second, E("A", "a"), KL("T2", "t")))
	add("tree", AlgZStream, Seq(Second, E("A", "a"), KL("T2", "t")))
	// Two unkeyed members sharing the A⋈T1 sub-join, one with a trailing
	// negation: one unpartitioned shared lane with a pending queue.
	add("neg", AlgZStream, Seq(2*Second, E("A", "a"), E("T1", "c"), Not("B", "nb")).
		Where(Cmp(Ref("a", "x"), Ge, Const(1))))
	add("ext", AlgZStream, Seq(2*Second, E("A", "a"), E("T1", "c"), E("T2", "d")).
		Where(Cmp(Ref("a", "x"), Ge, Const(1)), AttrCmp("c", "x", Lt, "d", "x")))

	var mu sync.Mutex
	type delivered struct {
		m   *Match
		key string
	}
	kept := map[string][]delivered{}
	s := NewSession(SessionConfig{ShareSubplans: true, PartitionWorkers: 2})
	for _, qc := range queries {
		name := qc.Name
		qc.OnMatch = func(m *Match) {
			mu.Lock()
			kept[name] = append(kept[name], delivered{m, m.Key()})
			mu.Unlock()
		}
		if err := s.Register(qc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const size = 32
	if n := len(stream) / size; n < 100 {
		t.Fatalf("stream gives only %d batches", n)
	}
	feedBatches(t, s, stream, size)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	partitioned, shared := 0, 0
	for _, c := range s.ShareReport().Components {
		shared += len(c.Members)
		if c.Partitions == 2 {
			partitioned++
		}
	}
	if partitioned == 0 || shared < 4 {
		t.Fatalf("lane layout not exercised: %d partitioned components, %d shared members", partitioned, shared)
	}
	for _, qc := range queries {
		ds := kept[qc.Name]
		if len(ds) == 0 {
			t.Fatalf("query %s delivered nothing — test exercises nothing there", qc.Name)
		}
		for i, d := range ds {
			if got := d.m.Key(); got != d.key {
				t.Fatalf("query %s: match %d changed after delivery: %s, was %s", qc.Name, i, got, d.key)
			}
		}
	}
}

// feedBatches submits the events in batches of the given size.
func feedBatches(t *testing.T, s *Session, events []*Event, size int) {
	t.Helper()
	for i := 0; i < len(events); i += size {
		if err := s.SubmitBatch(events[i:min(i+size, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
}
