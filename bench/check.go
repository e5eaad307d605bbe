package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	cep "repro"
	"repro/internal/core"
	"repro/internal/oracle"
)

// defaultSeed is the seed the committed golden digests belong to.
const defaultSeed = 1

// queryWindow returns the stream interval [from, to) during which query q
// of the instance is registered, following the churn operations, and
// whether it is still registered at the end of the stream (its engine is
// then flushed; a removed query's pendings are discarded).
func (in *instance) queryWindow(q, n int) (from, to int, live bool) {
	from, to, live = 0, n, true
	if q >= in.base {
		from, to, live = n, n, false
	}
	for _, op := range in.ops {
		if op.query != q || op.at >= n {
			continue
		}
		if op.add {
			from, to, live = op.at, n, true
		} else {
			to, live = op.at, false
		}
	}
	return from, to, live
}

// reference computes every query's digest over stream[:n] with one
// standalone cep runtime per query — no session, no sharing, no index, no
// partitioning: the match sets the Session must reproduce.
func (in *instance) reference(n int) ([]digest, error) {
	out := make([]digest, len(in.all))
	for q, qc := range in.all {
		from, to, live := in.queryWindow(q, n)
		rt, err := cep.NewFromConfig(qc)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", qc.Name, err)
		}
		d := &out[q]
		add := func(ms []*cep.Match) {
			for _, m := range ms {
				d.N++
				d.H += matchHash(m)
			}
		}
		for _, e := range in.stream[from:to] {
			ms, err := rt.Process(e)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", qc.Name, err)
			}
			add(ms)
		}
		if live {
			ms, err := rt.Flush()
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", qc.Name, err)
			}
			add(ms)
		} else if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// oracleDigests enumerates every query's matches over stream[:n] with the
// brute-force oracle. Queries with a Kleene term are skipped (ok[q] false):
// the engines bound the Kleene base (MaxKleeneBase) and the oracle does
// not, so their match sets are only comparable engine to engine.
func (in *instance) oracleDigests(n int) (ds []digest, ok []bool, err error) {
	ds, ok = make([]digest, len(in.all)), make([]bool, len(in.all))
	for q, qc := range in.all {
		from, to, live := in.queryWindow(q, n)
		if !live || from != 0 {
			continue // a query cut by churn ends without a flush; the oracle always flushes
		}
		pl, err := (&core.Planner{Algorithm: algorithmOf(qc), Strategy: qc.Strategy}).Plan(qc.Pattern, qc.Stats)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle %s: %w", qc.Name, err)
		}
		kleene := false
		for _, sp := range pl.Simple {
			for _, k := range sp.Compiled.Kleene {
				kleene = kleene || k
			}
		}
		if kleene {
			continue
		}
		ok[q] = true
		for _, sp := range pl.Simple {
			for _, m := range oracle.Find(sp.Compiled, in.stream[:to]) {
				ds[q].N++
				ds[q].H += matchHash(m)
			}
		}
	}
	return ds, ok, nil
}

func algorithmOf(qc cep.QueryConfig) string {
	if qc.Algorithm == "" {
		return cep.AlgGreedy
	}
	return qc.Algorithm
}

// diffDigests counts the queries whose digests differ and describes the
// first few.
func (in *instance) diffDigests(label string, got, want []digest, only []bool) (bad int, msgs []string) {
	for q := range want {
		if only != nil && !only[q] {
			continue
		}
		if got[q] != want[q] {
			bad++
			if len(msgs) < 4 {
				msgs = append(msgs, fmt.Sprintf("%s: query %s: got %d matches (hash %x), want %d (hash %x)",
					label, in.all[q].Name, got[q].N, got[q].H, want[q].N, want[q].H))
			}
		}
	}
	return bad, msgs
}

// goldenFS holds the committed digest files, one per workload.
//
//go:embed golden
var goldenFS embed.FS

func goldenPath(workload string) string { return "golden/" + workload + ".json" }

// golden is the committed per-query digest map of the default seed's
// correctness stream.
type golden struct {
	Seed    int64             `json:"seed"`
	Events  int               `json:"events"`
	Queries map[string]digest `json:"queries"`
}

func readGolden(workload string) (*golden, error) {
	blob, err := goldenFS.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, err
	}
	g := new(golden)
	if err := json.Unmarshal(blob, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	return g, nil
}

// writeGolden rewrites a workload's digest file in the package directory
// (go test -update runs there).
func writeGolden(in *instance, ds []digest) error {
	path := filepath.FromSlash(goldenPath(in.spec.name))
	g := golden{Seed: defaultSeed, Events: len(in.stream), Queries: map[string]digest{}}
	for q, qc := range in.all {
		g.Queries[qc.Name] = ds[q]
	}
	blob, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// checkResult is the verdict of the correctness gate: every comparison made
// counts as attempted, every differing query as failed.
type checkResult struct {
	attempted, failed int
	msgs              []string
}

func (c *checkResult) add(n, bad int, msgs []string) {
	c.attempted += n
	c.failed += bad
	c.msgs = append(c.msgs, msgs...)
}

// check runs the correctness gate on a freshly generated correctness
// stream of the workload: a Session run (same configuration as the timed
// reps) against per-query reference runtimes, the brute-force oracle on a
// prefix, and — on the default seed — the committed golden digests.
func check(sp *spec, seed int64) (*checkResult, error) {
	res := &checkResult{}
	in, err := sp.build(seed, sp.checkEvents)
	if err != nil {
		return nil, err
	}
	run, err := in.run(repOpts{digest: true})
	if err != nil {
		return nil, err
	}
	res.add(run.batches, run.errs, nil)
	ref, err := in.reference(len(in.stream))
	if err != nil {
		return nil, err
	}
	bad, msgs := in.diffDigests("session vs reference runtimes", run.digests, ref, nil)
	res.add(len(ref), bad, msgs)

	if seed == defaultSeed {
		g, err := readGolden(sp.name)
		if err != nil {
			return nil, fmt.Errorf("golden digests: %w", err)
		}
		want := make([]digest, len(in.all))
		for q, qc := range in.all {
			want[q] = g.Queries[qc.Name]
		}
		if g.Events != len(in.stream) || len(g.Queries) != len(in.all) {
			res.add(1, 1, []string{fmt.Sprintf("golden file covers %d events and %d queries, the workload has %d and %d",
				g.Events, len(g.Queries), len(in.stream), len(in.all))})
		}
		bad, msgs := in.diffDigests("session vs golden", run.digests, want, nil)
		res.add(len(want), bad, msgs)
	}

	if sp.oracleEvents > 0 {
		// The oracle sees a prefix; so must the engines it is compared with.
		pre, err := sp.build(seed, sp.oracleEvents)
		if err != nil {
			return nil, err
		}
		pre.ops = nil // oracleDigests only covers queries live for the whole prefix
		got, err := pre.run(repOpts{digest: true})
		if err != nil {
			return nil, err
		}
		want, ok, err := pre.oracleDigests(len(pre.stream))
		if err != nil {
			return nil, err
		}
		n := 0
		for _, o := range ok {
			if o {
				n++
			}
		}
		bad, msgs := pre.diffDigests("session vs oracle", got.digests, want, ok)
		res.add(n, bad, msgs)
	}
	return res, nil
}
