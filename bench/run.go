package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	cep "repro"
)

// digest is the order-independent fingerprint of one query's match set:
// the match count and the wrapping sum of per-match hashes.
type digest struct {
	N int64  `json:"n"`
	H uint64 `json:"h"`
}

// matchHash hashes what match.Key() renders — per position, the set of
// bound event serials — without building the string: positions are folded
// in order, the serials inside one position order-independently (Kleene
// groups are sets).
func matchHash(m *cep.Match) uint64 {
	h := uint64(14695981039346656037)
	for _, g := range m.Positions {
		var set uint64
		for _, e := range g {
			x := uint64(e.Serial) * 0x9e3779b97f4a7c15
			set += x ^ x>>29
		}
		h = (h ^ set ^ uint64(len(g))) * 1099511628211
	}
	return h
}

// sink is one query's match consumer. The session serializes a query's
// deliveries, but its lanes are other goroutines than the reader's, so the
// fields are atomics.
type sink struct {
	n atomic.Int64
	h atomic.Uint64
}

func (s *sink) digest() digest { return digest{N: s.n.Load(), H: s.h.Load()} }

// repOpts selects what one pass of a stream through a fresh Session
// measures. The zero value is a saturation rep over the whole stream.
type repOpts struct {
	events    int           // prefix of the stream to feed (0: all)
	pacedRate float64       // events/s of the open-loop schedule (0: closed loop)
	heap      bool          // Drain + runtime.GC() at heapCheckpoints positions, record live heap
	digest    bool          // sinks hash every match (else they only count)
	metrics   bool          // Drain and snapshot Session.Metrics() before Flush
	deadline  time.Duration // stop feeding after this long (0: never)
}

const heapCheckpoints = 16

// repResult is what one pass measured. wall runs from the first SubmitBatch
// to the return of Flush.
type repResult struct {
	events, batches int
	wall, cpu       time.Duration
	flush, submit   time.Duration
	mallocs         uint64
	digests         []digest // per query of instance.all
	lat, lag        *hist    // paced: detection latency and generator lateness, ns
	late            int      // paced: batches issued more than 1 s late
	errs            int      // SubmitBatch/Flush/Err/AddQuery/RemoveQuery errors
	heap            []uint64 // heap: live HeapAlloc above the pre-session baseline at each checkpoint, bytes
	splices         []time.Duration
	metrics         *cep.SessionMetrics
}

func (r *repResult) matches() int64 {
	var n int64
	for _, d := range r.digests {
		n += d.N
	}
	return n
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// newSession builds and starts a session over the instance's base queries,
// wiring sinks[i] as query i's OnMatch.
func (in *instance) newSession(onMatch func(i int) func(*cep.Match)) (*cep.Session, error) {
	s := cep.NewSession(in.cfg)
	for i := 0; i < in.base; i++ {
		qc := in.all[i]
		qc.OnMatch = onMatch(i)
		if err := s.Register(qc); err != nil {
			return nil, fmt.Errorf("register %s: %w", qc.Name, err)
		}
	}
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	return s, nil
}

// timeSetup measures one NewSession + Register + Start and discards the
// session.
func (in *instance) timeSetup() (time.Duration, error) {
	t0 := time.Now()
	s, err := in.newSession(func(int) func(*cep.Match) { return func(*cep.Match) {} })
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, s.Close()
}

// run feeds the stream through a fresh Session on the calling goroutine —
// the one producer of the run protocol — in batchSize batches.
func (in *instance) run(o repOpts) (*repResult, error) {
	n := len(in.stream)
	if o.events > 0 && o.events < n {
		n = o.events
	}
	res := &repResult{}
	sinks := make([]sink, len(in.all))
	paced := o.pacedRate > 0
	interval := time.Duration(0)
	if paced {
		res.lat, res.lag = new(hist), new(hist)
		interval = time.Duration(float64(batchSize) / o.pacedRate * float64(time.Second))
	}
	var start time.Time
	onMatch := func(i int) func(*cep.Match) {
		sk := &sinks[i]
		switch {
		case paced:
			// Detection latency: sink time minus the due time of the batch
			// holding the match's latest event.
			lat := res.lat
			return func(m *cep.Match) {
				sk.n.Add(1)
				var last int64
				for _, g := range m.Positions {
					for _, e := range g {
						last = max(last, e.Serial)
					}
				}
				due := time.Duration((last-1)/batchSize) * interval
				lat.record(int64(time.Since(start) - due))
			}
		case o.digest:
			return func(m *cep.Match) {
				sk.n.Add(1)
				sk.h.Add(matchHash(m))
			}
		default:
			return func(*cep.Match) { sk.n.Add(1) }
		}
	}

	var heapBase uint64
	if o.heap {
		heapBase = liveHeap()
	} else {
		runtime.GC() // every rep starts at the same point of the GC cycle
	}
	s, err := in.newSession(onMatch)
	if err != nil {
		return nil, err
	}

	fail := func(err error) {
		if err != nil {
			res.errs++
		}
	}
	ops := in.ops
	nextHeap, heapStep := 0, max(n/(heapCheckpoints+1)/batchSize, 1)*batchSize
	if o.heap {
		nextHeap = heapStep
	}
	m0 := mallocs()
	cpu0 := cpuTime()
	start = time.Now()
	for i := 0; i < n; i += batchSize {
		for len(ops) > 0 && ops[0].at <= i {
			op := ops[0]
			ops = ops[1:]
			t := time.Now()
			if op.add {
				qc := in.all[op.query]
				qc.OnMatch = onMatch(op.query)
				fail(s.AddQuery(qc))
			} else {
				fail(s.RemoveQuery(in.all[op.query].Name))
			}
			res.splices = append(res.splices, time.Since(t))
		}
		if o.heap && i == nextHeap {
			fail(s.Drain())
			if h := liveHeap(); h > heapBase {
				res.heap = append(res.heap, h-heapBase)
			}
			nextHeap += heapStep
		}
		if paced {
			// Sleep, never spin: a yielding spin puts the producer behind the
			// lanes in the scheduler's queue and makes it tens of milliseconds
			// late under load; a sleeping one wakes within the runtime's timer
			// granularity (up to ~1 ms, reported as session.paced_lag_p99_us).
			due := time.Duration(i/batchSize) * interval
			if d := due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			lag := time.Since(start) - due
			res.lag.record(int64(lag))
			if lag > time.Second {
				res.late++
			}
		} else if o.deadline > 0 && i&(64*batchSize-1) == 0 && time.Since(start) > o.deadline {
			break
		}
		end := min(i+batchSize, n)
		var t time.Time
		if o.metrics {
			t = time.Now()
		}
		fail(s.SubmitBatch(in.stream[i:end]))
		if o.metrics {
			res.submit += time.Since(t)
		}
		res.events = end
		res.batches++
	}
	if o.metrics {
		fail(s.Drain())
		res.metrics = s.Metrics()
	}
	t := time.Now()
	_, err = s.Flush()
	fail(err)
	res.flush = time.Since(t)
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.mallocs = mallocs() - m0
	fail(s.Err())
	res.digests = make([]digest, len(sinks))
	for i := range sinks {
		res.digests[i] = sinks[i].digest()
	}
	return res, nil
}
