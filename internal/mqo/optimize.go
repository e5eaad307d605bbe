package mqo

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stats"
)

// Query is one candidate query for subplan sharing: its name, the
// per-query plan the single-query planner produced, and — for queries
// joining a live session — the stream sequence watermark from which the
// query observes events (0 for queries registered before the first event).
type Query struct {
	Name  string
	SP    *core.SimplePlan
	Since uint64
}

// Options tunes the optimizer. The zero value selects the defaults.
type Options struct {
	// FanoutFactor is the modeled relative cost of fanning a shared node's
	// partial matches out to one extra consumer (default
	// cost.DefaultFanoutFactor).
	FanoutFactor float64
	// MaxCandidates bounds how many canonical sub-join candidates the
	// greedy selector examines, best modeled saving first (default 128).
	MaxCandidates int
	// MaxSubsetSize bounds the position-subset enumeration per query
	// (default 10; enumeration is 2^n).
	MaxSubsetSize int
	// GroupWorkers partitions a sharing component's root fan-out across up
	// to this many evaluation DAGs, each served by its own worker lane, so
	// one hot component no longer serializes on a single goroutine. Members
	// are cost-balanced across the lanes (cost.Balance); sub-joins shared
	// across lanes are evaluated once per lane, so the split trades some
	// recomputation for parallelism. 0 or 1 keeps one DAG per component; a
	// lane always holds at least two members (components too small to split
	// stay whole).
	GroupWorkers int
	// Partitions hash-partitions each sharing component that carries an
	// equi-join key (see partitionKey) across this many lanes: every lane
	// gets a full copy of the component's DAG serving ALL members, but owns
	// only the events whose key hashes into its bucket — shared nodes are
	// computed once per partition with no cross-lane recomputation, which is
	// what GroupWorkers cannot offer. Components without a key fall back to
	// the GroupWorkers split. 0 or 1 disables partitioning.
	Partitions int
}

func (o Options) withDefaults() Options {
	if o.FanoutFactor <= 0 || o.FanoutFactor >= 1 {
		o.FanoutFactor = cost.DefaultFanoutFactor
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 128
	}
	if o.MaxSubsetSize <= 0 {
		o.MaxSubsetSize = 10
	}
	if o.GroupWorkers <= 0 {
		o.GroupWorkers = 1
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	return o
}

// Group is one shared evaluation lane: a shared evaluation DAG and the
// names of the queries it serves. Component identifies the connected
// sharing component the lane belongs to (lanes of a split component share
// it); the cost fields are the modeled unshared vs shared cost of this
// lane's members, and Restructured counts the members whose private-optimal
// tree was bent toward a common sub-join.
type Group struct {
	Engine  *Engine
	Members []string

	// Trees holds each member's final evaluated tree (private-optimal or
	// restructured toward a common sub-join), in planning-position space —
	// the structure a drift check must re-price under fresh statistics,
	// which the member's private plan no longer describes once the
	// optimizer has bent it.
	Trees map[string]*plan.TreeNode

	Component    int
	Restructured int
	Nodes        int
	SharedNodes  int
	UnsharedCost float64
	SharedCost   float64

	// Partition/Partitions/PartitionAttr describe key-partitioned lanes:
	// this lane owns partition index Partition of Partitions hash buckets
	// of the component's PartitionAttr equi-join key. Partitions <= 1 means
	// the lane is unpartitioned (Single, splitComponent and unkeyed
	// components leave the zero values). The Partitions sibling lanes of one
	// component serve identical member sets; SharedCost is per lane (the
	// whole component costs Partitions times as much).
	Partition     int
	Partitions    int
	PartitionAttr string
}

// Report summarizes what the optimizer decided, in cost-model terms.
type Report struct {
	// Eligible counts the queries that satisfied the shareable-fragment
	// conditions (single positive SEQ/AND disjunct, skip-till-any-match).
	Eligible int
	// Shared counts the queries placed on shared DAGs.
	Shared int
	// Restructured counts the queries whose private-optimal tree was bent
	// toward a shareable sub-join because the model predicted a win.
	Restructured int
	// Nodes and SharedNodes count distinct DAG nodes and those consumed by
	// more than one parent edge or query root.
	Nodes       int
	SharedNodes int
	// UnsharedCost is Σ Cost_tree of the members' private plans;
	// SharedCost is the shared-plan objective of the final DAGs.
	UnsharedCost float64
	SharedCost   float64
}

// Result is the optimizer's output: the shared groups plus the eligible
// queries the model left on their private engines. Keys maps every input
// query to its sharing-relevant canonical keys — the index a session keeps
// to decide, when a query registers or deregisters live, which sharing
// component is affected and must be re-optimized.
type Result struct {
	Groups  []Group
	Private []string
	Report  Report
	Keys    map[string][]string
}

// Eligible reports whether a planned query may participate in subplan
// sharing: exactly one disjunct without Kleene positions, evaluated under
// skip-till-any-match — the fragment whose positive match sets are provably
// plan-independent (Section 3's equivalence of all plans), which is what
// makes evaluating a query on a restructured shared plan match-for-match
// identical to its private plan. Negated positions are allowed: the shared
// DAG evaluates the positive core and the consuming root applies the
// negation checks of Section 5.3 itself.
func Eligible(pl *core.Plan, strategy predicate.Strategy) bool {
	if pl == nil || len(pl.Simple) != 1 {
		return false
	}
	sp := pl.Simple[0]
	if strategy != predicate.SkipTillAnyMatch {
		return false
	}
	for _, k := range sp.Compiled.Kleene {
		if k {
			return false
		}
	}
	return true
}

// qstate is the optimizer's working state for one query. Trees and
// position subsets are in planning-position space (positive events only);
// sigs and term translate to compiled term positions where the predicate
// tables live.
type qstate struct {
	name  string
	sp    *core.SimplePlan
	c     *predicate.Compiled
	sigs  *sigCache
	ps    *stats.PatternStats
	since uint64
	tree  *plan.TreeNode // current (possibly restructured) tree, planning positions
	// baseCost is Cost_tree of the private-optimal plan; cost tracks the
	// current (possibly restructured) tree.
	baseCost float64
	cost     float64
	// locked marks positions inside an adopted shared sub-join; a later
	// restructure may not cut across them.
	locked map[int]bool
}

// term translates a planning position to its compiled term position.
func (q *qstate) term(pos int) int { return q.ps.TermIndex[pos] }

// newQState prepares one query's working state.
func newQState(in Query) *qstate {
	sp := in.SP
	tree := sp.Tree
	if tree == nil {
		// Theorem 1: an order-based plan is the left-deep tree over the
		// same processing order.
		tree = plan.LeftDeep(sp.Order)
	}
	tree = tree.Clone()
	c := cost.Tree(sp.Stats, tree)
	return &qstate{
		name:     in.Name,
		sp:       sp,
		c:        sp.Compiled,
		sigs:     newSigCache(sp.Compiled, sp.Stats.TermIndex),
		ps:       sp.Stats,
		since:    in.Since,
		tree:     tree,
		baseCost: c,
		cost:     c,
		locked:   make(map[int]bool),
	}
}

// candidate is one canonical sub-join that at least two queries could
// evaluate: where it occurs (per query: the position subset), and the
// modeled per-consumer cost of computing it.
type candidate struct {
	key     string
	subsets map[int][]int // query index -> planning-position subset
	shape   *plan.TreeNode
	shapeQ  int     // query whose positions shape's leaves use
	pm      float64 // Cost_tree of the sub-join under shapeQ's stats
	saving  float64 // modeled saving if every supporter shared it
}

// Optimize selects which sub-joins to materialize once across the queries
// and builds the shared evaluation DAGs, one or more per connected sharing
// component (Options.GroupWorkers splits large components across several
// lanes). Queries that end up sharing nothing are reported in
// Result.Private — the caller should keep them on their private engines
// (and their private workers) rather than serializing them through a DAG
// for no modeled win.
func Optimize(queries []Query, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	qs := make([]*qstate, len(queries))
	for i, q := range queries {
		qs[i] = newQState(q)
	}

	cands := enumerateCandidates(qs, opt)
	restructured := greedySelect(qs, cands, opt)

	// Final grouping: dedup every subtree of every final tree by canonical
	// key; queries sharing at least one internal-node key form components.
	type keyInfo struct {
		users []int // query indices
	}
	keys := map[string]*keyInfo{}
	for qi, q := range qs {
		for _, sub := range q.tree.Subtrees() {
			key, _ := subsetKey(q.sigs, sub.Leaves())
			ki := keys[key]
			if ki == nil {
				ki = &keyInfo{}
				keys[key] = ki
			}
			if len(ki.users) == 0 || ki.users[len(ki.users)-1] != qi {
				ki.users = append(ki.users, qi)
			}
		}
	}
	parent := make([]int, len(qs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	sharedQ := make(map[int]bool)
	for _, ki := range keys {
		if len(ki.users) < 2 {
			continue
		}
		for _, u := range ki.users {
			sharedQ[u] = true
			union(ki.users[0], u)
		}
	}

	res := &Result{
		Report: Report{Eligible: len(qs), Restructured: len(restructured)},
		Keys:   make(map[string][]string, len(qs)),
	}
	for _, q := range qs {
		res.Keys[q.name] = shareKeys(q, opt)
	}
	comps := map[int][]int{}
	for qi := range qs {
		if !sharedQ[qi] {
			res.Private = append(res.Private, qs[qi].name)
			continue
		}
		root := find(qi)
		comps[root] = append(comps[root], qi)
	}
	roots := make([]int, 0, len(comps))
	for r := range comps {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for compID, r := range roots {
		members := comps[r]
		sort.Ints(members)
		if opt.Partitions > 1 {
			whole := make([]*qstate, len(members))
			for i, qi := range members {
				whole[i] = qs[qi]
			}
			if attr, ok := partitionKey(whole); ok {
				if err := buildPartitioned(res, whole, compID, attr, restructured, opt); err != nil {
					return nil, err
				}
				continue
			}
		}
		for _, bin := range splitComponent(qs, members, opt.GroupWorkers) {
			group := make([]*qstate, len(bin))
			for i, qi := range bin {
				group[i] = qs[qi]
			}
			eng, err := buildEngine(group)
			if err != nil {
				return nil, err
			}
			g := Group{Engine: eng, Component: compID, Trees: make(map[string]*plan.TreeNode, len(group))}
			for _, q := range group {
				g.Members = append(g.Members, q.name)
				g.Trees[q.name] = q.tree.Clone()
				g.UnsharedCost += q.baseCost
				if restructured[q.name] {
					g.Restructured++
				}
			}
			g.Nodes = eng.st.Nodes
			g.SharedNodes = eng.st.SharedNodes
			g.SharedCost = sharedObjective(group, opt.FanoutFactor)
			res.Groups = append(res.Groups, g)
			res.Report.Shared += len(group)
			res.Report.Nodes += g.Nodes
			res.Report.SharedNodes += g.SharedNodes
			res.Report.UnsharedCost += g.UnsharedCost
			res.Report.SharedCost += g.SharedCost
		}
	}
	return res, nil
}

// buildPartitioned appends the Partitions sibling lanes of one keyed
// component to the result: each lane gets its own engine over the same
// member trees (buildEngine reads the qstates without mutating them),
// stamped with the partition identity and a shared family token so a later
// AdoptFrom recognizes the lanes as slices of one buffer. Report totals are
// added once (at partition 0): the members are shared once, the DAG exists
// logically once, and the component's total shared cost is Partitions times
// the per-lane share.
func buildPartitioned(res *Result, group []*qstate, compID int, attr string, restructured map[string]bool, opt Options) error {
	fam := &partFamily{}
	laneCost := cost.PartitionedShared(sharedNodeList(group), opt.FanoutFactor, opt.Partitions)
	for p := 0; p < opt.Partitions; p++ {
		eng, err := buildEngine(group)
		if err != nil {
			return err
		}
		eng.partAttr, eng.partIdx, eng.partTotal, eng.family = attr, p, opt.Partitions, fam
		g := Group{
			Engine: eng, Component: compID,
			Trees:     make(map[string]*plan.TreeNode, len(group)),
			Partition: p, Partitions: opt.Partitions, PartitionAttr: attr,
		}
		for _, q := range group {
			g.Members = append(g.Members, q.name)
			g.Trees[q.name] = q.tree.Clone()
			g.UnsharedCost += q.baseCost
			if restructured[q.name] {
				g.Restructured++
			}
		}
		g.Nodes = eng.st.Nodes
		g.SharedNodes = eng.st.SharedNodes
		g.SharedCost = laneCost
		res.Groups = append(res.Groups, g)
		if p == 0 {
			res.Report.Shared += len(group)
			res.Report.Nodes += g.Nodes
			res.Report.SharedNodes += g.SharedNodes
			res.Report.UnsharedCost += g.UnsharedCost
			res.Report.SharedCost += laneCost * float64(opt.Partitions)
		}
	}
	return nil
}

// Single builds a one-member evaluation lane for an eligible query — the
// shape a session uses for eligible queries outside any sharing group, so
// that their detection state lives in canonical-key node buffers and can be
// adopted by a later re-optimization that pulls them into a group.
func Single(q Query) (Group, error) {
	st := newQState(q)
	eng, err := buildEngine([]*qstate{st})
	if err != nil {
		return Group{}, err
	}
	return Group{
		Engine:       eng,
		Members:      []string{st.name},
		Trees:        map[string]*plan.TreeNode{st.name: st.tree.Clone()},
		Component:    -1,
		Nodes:        eng.st.Nodes,
		SharedNodes:  eng.st.SharedNodes,
		UnsharedCost: st.baseCost,
		SharedCost:   st.baseCost,
	}, nil
}

// QueryKeys computes a query's sharing-relevant canonical keys without
// running the optimizer: the keys of every position subset the candidate
// enumeration would consider, or — for patterns too large to enumerate —
// the subtree keys of its private-optimal tree. A live session intersects
// these with its standing key index to find the sharing component a newly
// registered query affects.
func QueryKeys(q Query, opt Options) []string {
	opt = opt.withDefaults()
	return shareKeys(newQState(q), opt)
}

// shareKeys lists the canonical keys under which a query could share: its
// enumerated position subsets when small enough, else only its current
// tree's internal nodes.
func shareKeys(q *qstate, opt Options) []string {
	seen := map[string]bool{}
	var out []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if n := q.ps.N(); n <= opt.MaxSubsetSize {
		positions := make([]int, n)
		for i := range positions {
			positions[i] = i
		}
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) < 2 {
				continue
			}
			key, _ := subsetKey(q.sigs, subsetOf(positions, mask))
			add(key)
		}
	}
	for _, sub := range q.tree.Subtrees() {
		key, _ := subsetKey(q.sigs, sub.Leaves())
		add(key)
	}
	sort.Strings(out)
	return out
}

// splitComponent partitions a component's members across up to workers
// cost-balanced bins of at least two members each; components too small to
// split stay whole.
func splitComponent(qs []*qstate, members []int, workers int) [][]int {
	bins := workers
	if max := len(members) / 2; bins > max {
		bins = max
	}
	if bins < 2 {
		return [][]int{members}
	}
	costs := make([]float64, len(members))
	for i, qi := range members {
		costs[i] = qs[qi].baseCost
	}
	parts := cost.Balance(costs, bins)
	out := make([][]int, 0, len(parts))
	for _, part := range parts {
		bin := make([]int, len(part))
		for i, k := range part {
			bin[i] = members[k]
		}
		sort.Ints(bin)
		out = append(out, bin)
	}
	return out
}

// enumerateCandidates computes, for every canonical sub-join of size >= 2
// that at least two queries could evaluate, where it occurs and what
// sharing it would save.
func enumerateCandidates(qs []*qstate, opt Options) []*candidate {
	byKey := map[string]*candidate{}
	for qi, q := range qs {
		n := q.ps.N()
		if n > opt.MaxSubsetSize {
			continue
		}
		positions := make([]int, n)
		for i := range positions {
			positions[i] = i
		}
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) < 2 {
				continue
			}
			subset := subsetOf(positions, mask)
			key, _ := subsetKey(q.sigs, subset)
			cand := byKey[key]
			if cand == nil {
				cand = &candidate{key: key, subsets: map[int][]int{}}
				byKey[key] = cand
			}
			if _, seen := cand.subsets[qi]; !seen {
				cand.subsets[qi] = subset
			}
		}
	}
	var out []*candidate
	for _, cand := range byKey {
		if len(cand.subsets) < 2 {
			continue
		}
		// Representative shape: prefer a subtree already present in some
		// query's current tree; otherwise plan one over the restricted
		// statistics.
		for qi, q := range qs {
			sub, ok := cand.subsets[qi]
			if !ok {
				continue
			}
			if t := findSubtree(q.tree, sub); t != nil {
				cand.shape, cand.shapeQ = t.Clone(), qi
				break
			}
		}
		if cand.shape == nil {
			qi := anyKey(cand.subsets)
			cand.shape, cand.shapeQ = planSubset(qs[qi], cand.subsets[qi]), qi
		}
		cand.pm = cost.Tree(qs[cand.shapeQ].ps, cand.shape)
		cand.saving = cost.SharedSaving(qs[cand.shapeQ].ps, cand.shape, len(cand.subsets), opt.FanoutFactor)
		out = append(out, cand)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].saving != out[b].saving {
			return out[a].saving > out[b].saving
		}
		return out[a].key < out[b].key // deterministic tie-break
	})
	if len(out) > opt.MaxCandidates {
		out = out[:opt.MaxCandidates]
	}
	return out
}

// greedySelect walks the candidates in descending modeled saving and, per
// candidate, restructures supporting queries toward the common sub-join
// when — and only when — the global shared-plan objective (cost.Shared over
// the deduplicated nodes of every query's current tree) improves. Owners,
// whose current tree already contains the sub-join, share syntactically
// without any change; evaluating restructures against the global objective
// keeps a locally attractive merge from breaking sharing established by an
// earlier (larger-saving) candidate. Returns the restructured query names.
func greedySelect(qs []*qstate, cands []*candidate, opt Options) map[string]bool {
	restructured := map[string]bool{}
	objective := sharedObjective(qs, opt.FanoutFactor)
	for _, cand := range cands {
		type adopter struct {
			qi      int
			subset  []int
			newTree *plan.TreeNode
			dCost   float64 // residual-cost increase when restructuring
		}
		var ads []adopter
		owners := 0
		for qi, q := range qs {
			subset := cand.subsets[qi]
			if subset == nil {
				continue
			}
			if overlapsLocked(q, subset) {
				continue
			}
			if findSubtree(q.tree, subset) != nil {
				owners++
				continue
			}
			nt, ok := restructure(q, subset, cand, qs)
			if !ok {
				continue
			}
			ads = append(ads, adopter{
				qi: qi, subset: subset, newTree: nt,
				dCost: cost.Tree(q.ps, nt) - q.cost,
			})
		}
		if len(ads) == 0 || owners+len(ads) < 2 {
			continue
		}
		sort.Slice(ads, func(a, b int) bool {
			if ads[a].dCost != ads[b].dCost {
				return ads[a].dCost < ads[b].dCost
			}
			return ads[a].qi < ads[b].qi
		})
		tryAdopt := func(batch []adopter) bool {
			type saved struct {
				tree *plan.TreeNode
				cost float64
			}
			olds := make([]saved, len(batch))
			for i, a := range batch {
				olds[i] = saved{qs[a.qi].tree, qs[a.qi].cost}
				qs[a.qi].tree = a.newTree
				qs[a.qi].cost = olds[i].cost + a.dCost
			}
			if newObj := sharedObjective(qs, opt.FanoutFactor); newObj < objective-1e-9 {
				objective = newObj
				for _, a := range batch {
					restructured[qs[a.qi].name] = true
					for _, p := range a.subset {
						qs[a.qi].locked[p] = true
					}
				}
				return true
			}
			for i, a := range batch {
				qs[a.qi].tree = olds[i].tree
				qs[a.qi].cost = olds[i].cost
			}
			return false
		}
		if owners > 0 {
			for _, a := range ads {
				tryAdopt([]adopter{a})
			}
			continue
		}
		// No owner computes the sub-join yet: a single restructure cannot
		// pay off alone, so the two cheapest supporters move jointly; the
		// rest follow marginally.
		if tryAdopt(ads[:2]) {
			for _, a := range ads[2:] {
				tryAdopt([]adopter{a})
			}
		}
	}
	return restructured
}

// restructure replans a query so that its tree contains the candidate
// sub-join as a subtree: the subset is contracted to a virtual position
// whose statistics reproduce the sub-join's output volume, the residual is
// replanned over the contracted statistics, and the virtual leaf is
// expanded back into the candidate's shape translated into this query's
// positions via the canonical slot correspondence.
func restructure(q *qstate, subset []int, cand *candidate, qs []*qstate) (*plan.TreeNode, bool) {
	psC, keep := stats.Contract(q.ps, subset)
	model := q.sp.Model
	model.Alpha = 0 // the latency anchor does not survive contraction
	model.LastPos = -1
	treeC := core.ZStreamOrd{}.Tree(psC, model)
	if treeC == nil {
		return nil, false
	}
	// Translate the candidate shape into this query's positions: shape
	// leaves are shapeQ positions; map them through the canonical orders.
	_, shapeOrd := subsetKey(qs[cand.shapeQ].sigs, cand.subsets[cand.shapeQ])
	_, qOrd := subsetKey(q.sigs, subset)
	slotOf := make(map[int]int, len(shapeOrd))
	for slot, pos := range shapeOrd {
		slotOf[pos] = slot
	}
	var expandShape func(t *plan.TreeNode) *plan.TreeNode
	expandShape = func(t *plan.TreeNode) *plan.TreeNode {
		if t.IsLeaf() {
			return plan.LeafNode(qOrd[slotOf[t.Leaf]])
		}
		return plan.Join(expandShape(t.Left), expandShape(t.Right))
	}
	virtual := len(keep)
	var expand func(t *plan.TreeNode) *plan.TreeNode
	expand = func(t *plan.TreeNode) *plan.TreeNode {
		if t.IsLeaf() {
			if t.Leaf == virtual {
				return expandShape(cand.shape)
			}
			return plan.LeafNode(keep[t.Leaf])
		}
		return plan.Join(expand(t.Left), expand(t.Right))
	}
	out := expand(treeC)
	if _, err := plan.NewTree(out); err != nil {
		return nil, false
	}
	return out, true
}

// planSubset builds a tree shape for a position subset with no syntactic
// owner, using the ZStream topology search over the restricted statistics.
func planSubset(q *qstate, subset []int) *plan.TreeNode {
	rs := stats.Restrict(q.ps, subset)
	t := core.ZStream{}.Tree(rs, cost.DefaultModel())
	var remap func(n *plan.TreeNode) *plan.TreeNode
	remap = func(n *plan.TreeNode) *plan.TreeNode {
		if n.IsLeaf() {
			return plan.LeafNode(subset[n.Leaf])
		}
		return plan.Join(remap(n.Left), remap(n.Right))
	}
	return remap(t)
}

// findSubtree returns the subtree of t whose leaf set equals subset, if
// any.
func findSubtree(t *plan.TreeNode, subset []int) *plan.TreeNode {
	want := make(map[int]bool, len(subset))
	for _, p := range subset {
		want[p] = true
	}
	var found *plan.TreeNode
	var rec func(n *plan.TreeNode) int // returns count of wanted leaves below
	rec = func(n *plan.TreeNode) int {
		if found != nil {
			return 0
		}
		if n.IsLeaf() {
			if want[n.Leaf] {
				return 1
			}
			return 0
		}
		c := rec(n.Left) + rec(n.Right)
		if c == len(subset) && n.Size() == len(subset) && found == nil {
			found = n
		}
		return c
	}
	rec(t)
	return found
}

// overlapsLocked reports whether the subset cuts across a previously
// adopted shared sub-join without containing it entirely.
func overlapsLocked(q *qstate, subset []int) bool {
	for _, p := range subset {
		if q.locked[p] {
			return true
		}
	}
	return false
}

// Sigs is a reusable canonical-signature cache for one compiled pattern —
// the handle callers hold across repeated SharedTreeCost pricings, because
// building the cache compiles alias-rewriting regexps and is far too
// expensive to redo per drift check.
type Sigs struct {
	sc *sigCache
}

// NewSigs builds the signature cache for a compiled pattern over its
// planning positions (stats.TermIndex).
func NewSigs(c *predicate.Compiled, termIndex []int) *Sigs {
	return &Sigs{sc: newSigCache(c, termIndex)}
}

// TreePrice is one query's contribution to SharedTreeCost: its canonical
// signatures, the statistics to price under, and the tree actually
// evaluated.
type TreePrice struct {
	Sigs *Sigs
	PS   *stats.PatternStats
	Tree *plan.TreeNode
}

// SharedTreeCost prices a set of running trees as the shared evaluation
// DAG they induce: distinct sub-joins (by canonical key) are paid once
// plus the fan-out term per extra consumer — the same objective the
// optimizer minimizes, re-evaluated under the caller's (typically freshly
// measured) statistics. A session's drift check prices both the running
// structure and a candidate replan this way, so the restructure inflation
// the optimizer accepted for a sharing win never reads as drift. fanout
// outside (0,1) selects cost.DefaultFanoutFactor.
func SharedTreeCost(items []TreePrice, fanout float64) float64 {
	if fanout <= 0 || fanout >= 1 {
		fanout = cost.DefaultFanoutFactor
	}
	type entry struct {
		pm        float64
		consumers int
	}
	nodes := map[string]*entry{}
	for _, it := range items {
		sc := it.Sigs.sc
		var rec func(t *plan.TreeNode)
		rec = func(t *plan.TreeNode) {
			key, _ := subsetKey(sc, t.Leaves())
			en := nodes[key]
			if en == nil {
				en = &entry{pm: cost.TreePM(it.PS, t)}
				nodes[key] = en
			}
			en.consumers++
			if !t.IsLeaf() {
				rec(t.Left)
				rec(t.Right)
			}
		}
		rec(it.Tree)
	}
	list := make([]cost.SharedNode, 0, len(nodes))
	for _, en := range nodes {
		list = append(list, cost.SharedNode{PM: en.pm, Consumers: en.consumers})
	}
	return cost.Shared(list, fanout)
}

// sharedObjective evaluates cost.Shared over the final DAG nodes of one
// component.
func sharedObjective(group []*qstate, fanout float64) float64 {
	return cost.Shared(sharedNodeList(group), fanout)
}

// sharedNodeList collects the deduplicated DAG nodes (by canonical key) of
// the group's final trees with their modeled partial-match volumes and
// consumer counts — the input of both the flat and the partitioned shared
// objective.
func sharedNodeList(group []*qstate) []cost.SharedNode {
	type entry struct {
		pm        float64
		consumers int
	}
	nodes := map[string]*entry{}
	for _, q := range group {
		var rec func(t *plan.TreeNode) string
		rec = func(t *plan.TreeNode) string {
			key, _ := subsetKey(q.sigs, t.Leaves())
			en := nodes[key]
			if en == nil {
				en = &entry{pm: cost.TreePM(q.ps, t)}
				nodes[key] = en
			}
			en.consumers++
			if !t.IsLeaf() {
				rec(t.Left)
				rec(t.Right)
			}
			return key
		}
		rec(q.tree)
	}
	list := make([]cost.SharedNode, 0, len(nodes))
	for _, en := range nodes {
		list = append(list, cost.SharedNode{PM: en.pm, Consumers: en.consumers})
	}
	return list
}

// buildEngine constructs the shared evaluation DAG for one component from
// the members' final trees, deduplicating nodes by canonical key. Trees are
// in planning-position space; every access to the compiled predicate tables
// goes through the query's planning→term translation, so negation queries
// contribute only their positive core to the DAG.
func buildEngine(group []*qstate) (*Engine, error) {
	eng := &Engine{byType: map[string][]*node{}}
	byKey := map[string]*node{}

	var build func(q *qstate, t *plan.TreeNode) (*node, []int, error)
	build = func(q *qstate, t *plan.TreeNode) (*node, []int, error) {
		subset := t.Leaves()
		key, ord := subsetKey(q.sigs, subset)
		if t.IsLeaf() {
			// Selection pushdown below shared sub-joins: leaves are keyed
			// without the window, so one filtered intake per distinct
			// type+unary-filter set serves every query, and each cheap
			// single-event selection is evaluated once per event no matter
			// how many plans consume it. The shared leaf retains events to
			// the widest consumer window (max-updated below); join parents
			// re-check their own window at combine time, and a single-event
			// root emission is trivially in-window.
			key = "L|" + q.sigs.leaf[t.Leaf]
		}
		// Pre-size hint: expected partial-match volume PM(N) under the
		// statistics this query was planned with (Section 4.2).
		bufCap := int(cost.TreePM(q.ps, t)) + 1
		if bufCap > maxBufCap {
			bufCap = maxBufCap
		}
		if n := byKey[key]; n != nil {
			if q.c.Window > n.window {
				n.window = q.c.Window
			}
			if bufCap > n.bufCap {
				n.bufCap = bufCap
			}
			return n, ord, nil
		}
		n := &node{key: key, window: q.c.Window, slots: len(ord), bufCap: bufCap}
		if t.IsLeaf() {
			pos := q.term(t.Leaf)
			n.leafType = q.c.Types[pos]
			for _, u := range q.c.Preds.Unaries(pos) {
				n.unary = append(n.unary, u.Fn)
				if u.HasCond {
					n.leafConds = append(n.leafConds, u.Cond)
				} else {
					n.leafResidual = append(n.leafResidual, u.Fn)
				}
			}
			eng.byType[n.leafType] = append(eng.byType[n.leafType], n)
		} else {
			ln, lord, err := build(q, t.Left)
			if err != nil {
				return nil, nil, err
			}
			rn, rord, err := build(q, t.Right)
			if err != nil {
				return nil, nil, err
			}
			n.left, n.right = ln, rn
			slotOf := make(map[int]int, len(ord))
			for slot, pos := range ord {
				slotOf[pos] = slot
			}
			n.leftMap = make([]int, len(lord))
			for i, pos := range lord {
				n.leftMap[i] = slotOf[pos]
			}
			n.rightMap = make([]int, len(rord))
			for i, pos := range rord {
				n.rightMap[i] = slotOf[pos]
			}
			ltypes := map[string]bool{}
			for _, pos := range lord {
				ltypes[q.c.Types[q.term(pos)]] = true
			}
			for _, pos := range rord {
				if ltypes[q.c.Types[q.term(pos)]] {
					n.needDisjoint = true
					break
				}
			}
			for li, lpos := range lord {
				for ri, rpos := range rord {
					lo, hi := q.term(lpos), q.term(rpos)
					if lo > hi {
						lo, hi = hi, lo
					}
					for _, pr := range q.c.Preds.Pairs(lo, hi) {
						fn := pr.Fn
						if pr.I != q.term(lpos) {
							orig := fn
							fn = func(a, b *event.Event) bool { return orig(b, a) }
						}
						cp := crossPred{l: li, r: ri, fn: fn}
						if pr.HasCond {
							cp.eqAttr, _ = pr.Cond.EqualityJoin()
						}
						n.cross = append(n.cross, cp)
					}
				}
			}
			ln.parents = append(ln.parents, edge{parent: n, side: 0})
			rn.parents = append(rn.parents, edge{parent: n, side: 1})
		}
		byKey[key] = n
		eng.nodes = append(eng.nodes, n)
		return n, ord, nil
	}

	for _, q := range group {
		root, ord, err := build(q, q.tree)
		if err != nil {
			return nil, err
		}
		termOf := make([]int, len(ord))
		for i, pos := range ord {
			termOf[i] = q.term(pos)
		}
		cons := consumer{name: q.name, c: q.c, termOf: termOf, since: q.since}
		for _, spec := range q.c.Negs {
			if spec.High >= 0 {
				cons.negComplete = append(cons.negComplete, spec)
			} else {
				cons.negPending = append(cons.negPending, spec)
			}
		}
		if cons.hasNegs() {
			cons.negBufs = make(map[int][]*event.Event, len(q.c.Negs))
		}
		root.consumers = append(root.consumers, cons)
		eng.names = append(eng.names, q.name)
	}
	eng.st.Nodes = len(eng.nodes)
	eng.st.Queries = len(group)
	wireIndexes(eng.nodes)
	for _, n := range eng.nodes {
		// Pre-allocate instance buffers to the cost model's expected volume
		// (parents are final now, so buffering nodes are known).
		if len(n.parents) > 0 {
			n.buffer = make([]*inst, 0, n.bufCap)
		}
		if len(n.parents)+len(n.consumers) > 1 {
			eng.st.SharedNodes++
		}
		for ci := range n.consumers {
			if n.consumers[ci].hasNegs() {
				eng.negCons = append(eng.negCons, &n.consumers[ci])
			}
		}
	}
	// Subscription slot tables for masked (index-routed) processing:
	// negation-buffer intakes first, then leaves, so sorted slot lists
	// process negations before leaf insertions exactly like processOne.
	for _, cons := range eng.negCons {
		for _, spec := range cons.c.Negs {
			eng.negSlots = append(eng.negSlots, negSlot{cons: cons, pos: spec.Pos})
		}
	}
	for _, n := range eng.nodes {
		if n.isLeaf() {
			eng.leafSlots = append(eng.leafSlots, n)
		}
	}
	if eng.st.Nodes == 0 {
		return nil, fmt.Errorf("mqo: empty component")
	}
	return eng, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func subsetOf(positions []int, mask int) []int {
	var out []int
	for i, p := range positions {
		if mask&(1<<i) != 0 {
			out = append(out, p)
		}
	}
	return out
}

func anyKey(m map[int][]int) int {
	best := -1
	for k := range m {
		if best < 0 || k < best {
			best = k
		}
	}
	return best
}
