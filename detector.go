package cep

import "errors"

// Detector is the unified detection contract every runtime flavor in this
// package satisfies. Plan choice, partitioning, sharding and adaptivity are
// implementation details behind it (the paper treats the evaluation plan the
// same way): callers feed timestamp-ordered events, harvest matches, and
// manage one lifecycle.
//
// The stream protocol is Process* → Flush → Close:
//
//   - Process consumes one event and returns the matches it completed.
//     Concurrent detectors (ShardedRuntime, Session) may instead deliver
//     matches asynchronously through their callbacks and return none here.
//     Bad input is an error, never a panic: a nil event returns ErrNilEvent,
//     an event after Flush/Close returns ErrClosed.
//   - Flush ends the stream: it releases matches held back by
//     trailing-negation windows (and, for concurrent detectors, drains
//     queues and joins workers) and returns them. A detector accepts no
//     further events after Flush; flushing twice returns ErrClosed.
//   - Close releases resources without collecting matches and is
//     idempotent: closing a closed (or flushed) detector returns nil.
//     Pending matches not yet flushed are discarded — call Flush first to
//     collect them.
//
// Detectors are single-goroutine state machines unless their documentation
// says otherwise; the concurrent flavors document their own submission
// rules.
type Detector interface {
	// Process consumes one timestamp-ordered event and returns the matches
	// it completed.
	Process(e *Event) ([]*Match, error)
	// Flush ends the stream and returns the pending matches.
	Flush() ([]*Match, error)
	// Close releases resources; it is idempotent and discards unflushed
	// pendings.
	Close() error
}

// BatchDetector is the batched extension of the Detector contract: a
// detector that can consume a whole timestamp-ordered batch in one call,
// amortizing per-event dispatch (queue sends, lock rounds, worker
// wake-ups) across the batch. ProcessBatch is semantically identical to
// calling Process per event in order — same matches, same errors — and the
// usual slice-validity rule applies: the returned matches are only valid
// until the next call. Consumers should type-assert and fall back to
// per-event Process when the assertion fails.
type BatchDetector interface {
	Detector
	// ProcessBatch consumes a timestamp-ordered batch and returns the
	// matches completed by the whole batch, in stream order.
	ProcessBatch(events []*Event) ([]*Match, error)
}

// Sentinel errors of the Detector contract. Implementations wrap them with
// context; match with errors.Is.
var (
	// ErrNilEvent reports a nil event fed to Process (or a nil hole in a
	// batch/slice): bad input is refused loudly instead of truncating or
	// panicking.
	ErrNilEvent = errors.New("cep: nil event")
	// ErrClosed reports an operation on a detector that was already flushed
	// or closed.
	ErrClosed = errors.New("cep: detector closed")
)

// Compile-time checks: every runtime flavor — and the Session front door —
// satisfies the unified Detector contract.
var (
	_ Detector = (*Runtime)(nil)
	_ Detector = (*AdaptiveRuntime)(nil)
	_ Detector = (*PartitionedRuntime)(nil)
	_ Detector = (*ShardedRuntime)(nil)
	_ Detector = (*Session)(nil)
)

// Compile-time checks: the batch-capable flavors extend it to
// BatchDetector.
var (
	_ BatchDetector = (*Runtime)(nil)
	_ BatchDetector = (*ShardedRuntime)(nil)
	_ BatchDetector = (*Session)(nil)
)
