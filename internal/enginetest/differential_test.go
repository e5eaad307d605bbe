package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	cep "repro"
	"repro/internal/event"
	"repro/internal/match"
)

// The differential harness is the safety net for hot-path surgery: it feeds
// one identical randomized workload (random query set, random stream)
// through independently planned per-query runtimes (the reference) and
// through Session configurations that exercise the batched and pooled code
// paths, and requires identical per-query match sets everywhere. Everything
// runs under skip-till-any-match — the strategy whose match sets are
// provably plan-independent (Section 3), and the only one whose global
// consumption marks cannot leak state between the engine configurations
// under comparison.

// diffQuery is one randomized query of a differential workload. kleene
// marks draws that are ineligible for sharing and therefore run on private
// detector lanes, whose provenance records carry no per-event seqs.
type diffQuery struct {
	name   string
	p      *cep.Pattern
	kleene bool
}

// buildDifferentialQueries draws nQueries random patterns with varied
// windows; a quarter carry negation, an eighth Kleene closure (those stay
// on private lanes — sharing eligibility excludes Kleene — which is exactly
// the point: the same session mixes shared-DAG and private-detector paths).
func buildDifferentialQueries(rng *rand.Rand, nQueries int) []diffQuery {
	qs := make([]diffQuery, nQueries)
	for i := range qs {
		window := event.Time(4 + rng.Int63n(13))
		negation := rng.Intn(4) == 0
		kleene := rng.Intn(8) == 0
		qs[i] = diffQuery{
			name:   fmt.Sprintf("q%02d", i),
			p:      RandomPattern(rng, window, negation, kleene),
			kleene: kleene,
		}
	}
	return qs
}

// referenceMatches runs every query on its own independently planned
// Runtime, per event — the unbatched, unshared ground truth.
func referenceMatches(qs []diffQuery, events []*event.Event) (map[string][]*match.Match, error) {
	out := make(map[string][]*match.Match, len(qs))
	for _, q := range qs {
		rt, err := cep.New(q.p, cep.Measure(events, q.p), cep.WithStrategy(cep.SkipTillAnyMatch))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		ms, err := rt.ProcessAll(events)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		out[q.name] = ms
	}
	return out, nil
}

// runSessionDifferential feeds the workload through one Session
// configuration: shared or private lanes, per-event Submit (batch <= 1) or
// SubmitBatch in chunks of the given size, broadcast feed or the ingress
// filter index, key-partitioned shared evaluation when partitions >= 2.
func runSessionDifferential(qs []diffQuery, events []*event.Event, share, filterIndex bool, batch, partitions int) (map[string][]*match.Match, error) {
	s := cep.NewSession(cep.SessionConfig{
		ShareSubplans: share, FilterIndex: filterIndex, PartitionWorkers: partitions,
		Trace: &cep.TraceConfig{Provenance: true},
	})
	for _, q := range qs {
		err := s.Register(cep.QueryConfig{
			Name: q.name, Pattern: q.p, Strategy: cep.SkipTillAnyMatch,
			Stats: cep.Measure(events, q.p),
		})
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", q.name, err)
		}
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	if batch <= 1 {
		for _, ev := range events {
			if err := s.Submit(ev); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 0; i < len(events); i += batch {
			end := i + batch
			if end > len(events) {
				end = len(events)
			}
			if err := s.SubmitBatch(events[i:end]); err != nil {
				return nil, err
			}
		}
	}
	if _, err := s.Flush(); err != nil {
		return nil, err
	}
	return s.Results(), nil
}

// checkProvenance cross-checks the match provenance layer against the
// differential ground truth: every match must carry a record, and on shared
// engine lanes (everything except Kleene draws when sharing is on, and all
// lanes when it is off) the per-event seqs must equal the submission-order
// seq of each bound event, index-aligned with Events(). Private detector
// lanes report lane and latency only — nil Seqs is their documented
// contract — so they are checked for presence, not alignment.
func checkProvenance(mode string, qs []diffQuery, events []*event.Event, got map[string][]*match.Match, shared bool) error {
	seqOf := make(map[*event.Event]uint64, len(events))
	for i, ev := range events {
		seqOf[ev] = uint64(i + 1)
	}
	for _, q := range qs {
		for _, m := range got[q.name] {
			p := m.Prov
			if p == nil {
				return fmt.Errorf("%s: %s: match without provenance", mode, q.name)
			}
			if p.Lane < 0 || p.LatencyNS < 0 {
				return fmt.Errorf("%s: %s: malformed provenance %+v", mode, q.name, p)
			}
			if p.Seqs == nil {
				if shared && !q.kleene {
					return fmt.Errorf("%s: %s: shared-lane match lost its event seqs", mode, q.name)
				}
				continue
			}
			evs := m.Events()
			if len(p.Seqs) != len(evs) {
				return fmt.Errorf("%s: %s: %d seqs for %d events", mode, q.name, len(p.Seqs), len(evs))
			}
			for i, ev := range evs {
				if p.Seqs[i] != seqOf[ev] {
					return fmt.Errorf("%s: %s: seq[%d] = %d, want %d (%v)",
						mode, q.name, i, p.Seqs[i], seqOf[ev], p.Seqs)
				}
			}
		}
	}
	return nil
}

// checkDifferential generates the workload for one seed and asserts that
// every Session configuration reproduces the reference match set of every
// query exactly.
func checkDifferential(seed int64, nQueries, nEvents, batch int) error {
	rng := rand.New(rand.NewSource(seed))
	qs := buildDifferentialQueries(rng, nQueries)
	events := Stream(rng, nEvents, TypeNames, 3)
	want, err := referenceMatches(qs, events)
	if err != nil {
		return err
	}
	modes := []struct {
		name  string
		share bool
		fidx  bool
		batch int
	}{
		{"shared/per-event", true, false, 0},
		{fmt.Sprintf("shared/batch=%d", batch), true, false, batch},
		{fmt.Sprintf("private/batch=%d", batch), false, false, batch},
		{"indexed/shared/per-event", true, true, 0},
		{fmt.Sprintf("indexed/shared/batch=%d", batch), true, true, batch},
		{fmt.Sprintf("indexed/private/batch=%d", batch), false, true, batch},
	}
	for _, mode := range modes {
		Reset(events)
		got, err := runSessionDifferential(qs, events, mode.share, mode.fidx, mode.batch, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		for _, q := range qs {
			if extra, missing := match.Diff(got[q.name], want[q.name]); len(extra)+len(missing) > 0 {
				return fmt.Errorf("seed %d, %s: %s", seed, mode.name,
					DescribeDiff(q.name, got[q.name], want[q.name]))
			}
		}
		if err := checkProvenance(mode.name, qs, events, got, mode.share); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// buildKeyedDifferentialQueries draws a workload slanted toward the
// key-partitionable fragment: roughly half the queries chain their positive
// positions with x-equality joins (RandomKeyedPattern — these land on
// hash-partitioned shared lanes), the rest are unconstrained RandomPattern
// draws whose components have no equi-join key and must take the broadcast
// fallback. Mixing both in one session is the point: partitioned families,
// keyless shared lanes and private lanes coexist behind one feed.
func buildKeyedDifferentialQueries(rng *rand.Rand, nQueries int) []diffQuery {
	qs := make([]diffQuery, nQueries)
	for i := range qs {
		window := event.Time(4 + rng.Int63n(13))
		negation := rng.Intn(4) == 0
		if i%2 == 0 {
			qs[i] = diffQuery{
				name: fmt.Sprintf("kq%02d", i),
				p:    RandomKeyedPattern(rng, window, negation),
			}
			continue
		}
		kleene := rng.Intn(8) == 0
		qs[i] = diffQuery{
			name:   fmt.Sprintf("kq%02d", i),
			p:      RandomPattern(rng, window, negation, kleene),
			kleene: kleene,
		}
	}
	return qs
}

// checkPartitionDifferential asserts exact per-query match-set equality
// between the reference, the single-lane shared session and the
// key-partitioned shared session (P = parts lanes per keyed component), per
// event and batched, broadcast and index-routed.
func checkPartitionDifferential(seed int64, nQueries, nEvents, batch, parts int) error {
	rng := rand.New(rand.NewSource(seed))
	qs := buildKeyedDifferentialQueries(rng, nQueries)
	events := Stream(rng, nEvents, TypeNames, 3)
	want, err := referenceMatches(qs, events)
	if err != nil {
		return err
	}
	modes := []struct {
		name  string
		fidx  bool
		batch int
		parts int
	}{
		{"shared/single-lane", false, batch, 0},
		{fmt.Sprintf("partitioned=%d/per-event", parts), false, 0, parts},
		{fmt.Sprintf("partitioned=%d/batch=%d", parts, batch), false, batch, parts},
		{fmt.Sprintf("indexed/partitioned=%d/per-event", parts), true, 0, parts},
		{fmt.Sprintf("indexed/partitioned=%d/batch=%d", parts, batch), true, batch, parts},
	}
	for _, mode := range modes {
		Reset(events)
		got, err := runSessionDifferential(qs, events, true, mode.fidx, mode.batch, mode.parts)
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		for _, q := range qs {
			if extra, missing := match.Diff(got[q.name], want[q.name]); len(extra)+len(missing) > 0 {
				return fmt.Errorf("seed %d, %s: %s", seed, mode.name,
					DescribeDiff(q.name, got[q.name], want[q.name]))
			}
		}
		if err := checkProvenance(mode.name, qs, events, got, true); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// TestDifferentialSeeds pins a spread of fixed seeds so the harness runs on
// every `go test`, not only under `go test -fuzz`.
func TestDifferentialSeeds(t *testing.T) {
	cases := []struct {
		seed            int64
		queries, events int
		batch           int
	}{
		{1, 4, 400, 16},
		{2, 1, 200, 1},
		{3, 6, 500, 256},
		{4, 3, 300, 7},
		{5, 5, 450, 64},
		{6, 2, 250, 32},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/q=%d/n=%d/b=%d", tc.seed, tc.queries, tc.events, tc.batch), func(t *testing.T) {
			t.Parallel()
			if err := checkDifferential(tc.seed, tc.queries, tc.events, tc.batch); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionDifferentialSeeds pins the partitioned axis of the harness:
// fixed seeds across P ∈ {2, 4, 7} lanes per keyed component, including a
// prime lane count so no hash bucket pattern lines up with the power-of-two
// mixing steps.
func TestPartitionDifferentialSeeds(t *testing.T) {
	cases := []struct {
		seed            int64
		queries, events int
		batch, parts    int
	}{
		{11, 4, 400, 16, 2},
		{12, 6, 500, 64, 4},
		{13, 3, 300, 1, 4},
		{14, 5, 450, 7, 7},
		{15, 2, 250, 32, 2},
		{16, 6, 350, 128, 7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/q=%d/n=%d/b=%d/p=%d", tc.seed, tc.queries, tc.events, tc.batch, tc.parts), func(t *testing.T) {
			t.Parallel()
			if err := checkPartitionDifferential(tc.seed, tc.queries, tc.events, tc.batch, tc.parts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionDifferentialSkewedKey routes a fully skewed stream — every
// event carries the same x — through a partitioned session. All keyed work
// lands on one hash bucket; the other lanes stay idle but the match sets
// must still be exact.
func TestPartitionDifferentialSkewedKey(t *testing.T) {
	for _, key := range []float64{5, 0} {
		key := key
		t.Run(fmt.Sprintf("key=%v", key), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(21))
			qs := buildKeyedDifferentialQueries(rng, 4)
			events := KeyedStream(rng, 300, TypeNames, 3, key)
			want, err := referenceMatches(qs, events)
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range []int{2, 4} {
				Reset(events)
				got, err := runSessionDifferential(qs, events, true, false, 16, parts)
				if err != nil {
					t.Fatalf("parts=%d: %v", parts, err)
				}
				for _, q := range qs {
					if extra, missing := match.Diff(got[q.name], want[q.name]); len(extra)+len(missing) > 0 {
						t.Fatalf("parts=%d: %s", parts, DescribeDiff(q.name, got[q.name], want[q.name]))
					}
				}
			}
		})
	}
}

// TestPartitionDifferentialKeylessFallback asks for partitioned evaluation
// over a workload with no equi-join key (no query of this draw chains all
// its positive positions with Eq pairs), so every sharing component must
// take the broadcast fallback — PartitionWorkers degrades to plain shared
// evaluation with no correctness impact.
func TestPartitionDifferentialKeylessFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	qs := buildDifferentialQueries(rng, 5)
	events := Stream(rng, 400, TypeNames, 3)
	want, err := referenceMatches(qs, events)
	if err != nil {
		t.Fatal(err)
	}
	Reset(events)
	got, err := runSessionDifferential(qs, events, true, true, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if extra, missing := match.Diff(got[q.name], want[q.name]); len(extra)+len(missing) > 0 {
			t.Fatal(DescribeDiff(q.name, got[q.name], want[q.name]))
		}
	}
}
