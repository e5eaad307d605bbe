package cep_test

// Runnable examples for the partitioned deployment shapes: a
// PartitionedRuntime with partition-local detection, and the sharded
// multi-core ShardedRuntime. Many patterns over one feed is a Session (see
// example_session_test.go).

import (
	"fmt"

	cep "repro"
)

// ExamplePartitionedRuntime detects a pattern independently inside each
// stream partition, planning each partition on first contact; matches never
// span partitions.
func ExamplePartitionedRuntime() {
	login := cep.NewSchema("Login", "user")
	alert := cep.NewSchema("Alert", "user")
	// No user predicate: only partition isolation separates the streams.
	p, _ := cep.ParsePattern(`PATTERN SEQ(Login l, Alert a) WITHIN 5 s`)
	pr, _ := cep.NewPartitioned(p, nil, nil)
	events := []*cep.Event{
		cep.NewEvent(login, 1000, 7),
		cep.NewEvent(login, 1500, 9),
		cep.NewEvent(alert, 2000, 7),
		cep.NewEvent(alert, 2500, 9),
	}
	for i, ev := range events {
		ev.Partition = i % 2 // e.g. one partition per data centre
	}
	total := 0
	for _, ev := range cep.Stamp(events) {
		ms, _ := pr.Process(ev)
		total += len(ms)
	}
	flushed, _ := pr.Flush() // partitions flush in ascending id order
	total += len(flushed)
	// One Login→Alert per partition; the cross-partition pairs are excluded.
	fmt.Println(total, "matches over", len(pr.Partitions()), "partitions")
	// Output: 2 matches over 2 partitions
}

// ExampleShardedRuntime scales partition-local detection across worker
// goroutines: events are hash-routed by partition id, each worker owns a
// disjoint set of per-partition engines, and bounded queues apply
// back-pressure to the producer. The match set is exactly the sequential
// PartitionedRuntime's.
func ExampleShardedRuntime() {
	login := cep.NewSchema("Login", "user")
	alert := cep.NewSchema("Alert", "user")
	p, _ := cep.ParsePattern(`PATTERN SEQ(Login l, Alert a) WITHIN 5 s`)
	sr, _ := cep.NewSharded(p, nil, nil, cep.ShardConfig{Workers: 4})
	if err := sr.Start(); err != nil {
		panic(err)
	}
	events := []*cep.Event{
		cep.NewEvent(login, 1000, 7),
		cep.NewEvent(login, 1500, 9),
		cep.NewEvent(alert, 2000, 7),
		cep.NewEvent(alert, 2500, 9),
	}
	for i, ev := range events {
		ev.Partition = i % 2
	}
	if err := sr.SubmitBatch(cep.Stamp(events)); err != nil {
		panic(err)
	}
	matches, err := sr.Flush() // drains queues, flushes engines, joins workers
	if err != nil {
		panic(err)
	}
	fmt.Println(len(matches), "matches on", sr.Workers(), "workers")
	// Output: 2 matches on 4 workers
}
