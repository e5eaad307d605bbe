package mqo

import (
	"math"

	"repro/internal/event"
)

// Equi-join hash indexes. A join node whose cross predicates include a
// same-attribute equality (`l.k = r.k`, pattern.Condition.EqualityJoin — the
// predicate partitionKey chains) indexes both children's buffers by that
// attribute, so an insertion from one side probes only the sibling
// instances carrying its key instead of the whole sibling buffer. The index
// is maintained as the window inserts and expires instances (after Idris et
// al., Conjunctive Queries with Theta Joins Under Updates) and hashes on the
// equi-join key like Dossinger & Michel's partitioning, but inside one lane.
// combine still evaluates every cross predicate, the equality included, so
// the index only narrows the candidates — it never decides a match.

// eqKey reads the hash key of one instance slot's equi-join attribute. The
// attribute position is resolved once per schema (a slot holds one event
// type, so in practice once); the event-header pseudo-attributes that
// Event.Attr resolves ahead of the schema get a direct reader.
type eqKey struct {
	slot   int
	attr   string
	header func(*event.Event) float64 // non-nil for ts/serial/pserial/partition
	schema *event.Schema              // schema pos was resolved against
	pos    int                        // attribute position in schema; -1 when absent
}

func newEqKey(slot int, attr string) eqKey {
	return eqKey{slot: slot, attr: attr, header: headerAttr(attr), pos: -1}
}

// headerAttr mirrors Event.Attr's pseudo-attributes.
func headerAttr(attr string) func(*event.Event) float64 {
	switch attr {
	case "ts":
		return func(e *event.Event) float64 { return float64(e.TS) }
	case "serial":
		return func(e *event.Event) float64 { return float64(e.Serial) }
	case "pserial":
		return func(e *event.Event) float64 { return float64(e.PSerial) }
	case "partition":
		return func(e *event.Event) float64 { return float64(e.Partition) }
	}
	return nil
}

// of returns the instance's key. ok is false for a missing attribute or a
// NaN value: Eq cannot hold for either, so such instances are neither
// indexed nor probed. -0.0 collapses onto +0.0 (equal under Eq), exactly as
// in PartitionBucket.
func (k *eqKey) of(in *inst) (key uint64, ok bool) {
	ev := in.ev[k.slot]
	var v float64
	if k.header != nil {
		v = k.header(ev)
	} else {
		if ev.Schema != k.schema {
			k.schema, k.pos = ev.Schema, -1
			if ev.Schema != nil {
				if i, found := ev.Schema.Index(k.attr); found {
					k.pos = i
				}
			}
		}
		if k.pos < 0 {
			return 0, false
		}
		v = ev.Attrs[k.pos]
	}
	if v != v {
		return 0, false
	}
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v), true
}

// joinIndex hashes a node's buffered instances by one slot's attribute. Each
// bucket is the subsequence of the node's buffer with that key, in buffer
// order, so probing a bucket visits candidates in the same order a buffer
// scan would.
type joinIndex struct {
	key     eqKey
	buckets map[uint64][]*inst // created on the first add
	// spare holds the emptied, cleared buckets sweep deleted, so a key that
	// returns reuses one instead of allocating. It never outgrows the peak
	// bucket count.
	spare [][]*inst
}

func (ix *joinIndex) add(in *inst) {
	k, ok := ix.key.of(in)
	if !ok {
		return
	}
	if ix.buckets == nil {
		ix.buckets = map[uint64][]*inst{}
	}
	b, found := ix.buckets[k]
	if n := len(ix.spare); !found && n > 0 {
		b = ix.spare[n-1]
		ix.spare[n-1] = nil
		ix.spare = ix.spare[:n-1]
	}
	ix.buckets[k] = append(b, in)
}

// sweep drops the instances compact is about to recycle — the same
// e.now-in.minTS > window test — and deletes emptied buckets, so no recycled
// instance stays reachable from the index.
func (ix *joinIndex) sweep(now, window event.Time) {
	for k, b := range ix.buckets {
		keep := b[:0]
		for _, in := range b {
			if now-in.minTS <= window {
				keep = append(keep, in)
			}
		}
		clear(b[len(keep):])
		if len(keep) == 0 {
			delete(ix.buckets, k)
			ix.spare = append(ix.spare, keep)
		} else {
			ix.buckets[k] = keep
		}
	}
}

// indexOn returns the node's index on (slot, attr), creating it on first
// request: several parents probing the same slot and attribute (the two
// sides of a self-join, or sibling joins sharing a key) share one index.
func (n *node) indexOn(slot int, attr string) *joinIndex {
	for _, ix := range n.indexes {
		if ix.key.slot == slot && ix.key.attr == attr {
			return ix
		}
	}
	ix := &joinIndex{key: newEqKey(slot, attr)}
	n.indexes = append(n.indexes, ix)
	return ix
}

// reindex rebuilds the node's indexes from its buffer (AdoptFrom installs
// buffers wholesale).
func (n *node) reindex() {
	for _, ix := range n.indexes {
		ix.buckets, ix.spare = nil, nil
		for _, in := range n.buffer {
			ix.add(in)
		}
	}
}

// wireIndexes gives every join node with a same-attribute equality among
// its cross predicates a probe index on each child. The first such equality
// wins; the remaining cross predicates still run in combine.
func wireIndexes(nodes []*node) {
	for _, p := range nodes {
		for _, cp := range p.cross {
			if cp.eqAttr == "" {
				continue
			}
			// An insertion from the left probes the right child's index,
			// keyed by its own left slot — and vice versa.
			p.probe[0], p.probeKey[0] = p.right.indexOn(cp.r, cp.eqAttr), newEqKey(cp.l, cp.eqAttr)
			p.probe[1], p.probeKey[1] = p.left.indexOn(cp.l, cp.eqAttr), newEqKey(cp.r, cp.eqAttr)
			break
		}
	}
}

// candidates returns the instances of the join's other child that an
// instance arriving from child side may pair with: the bucket of its key
// when the join is indexed, else the other child's whole buffer.
func (n *node) candidates(side int, in *inst) []*inst {
	if ix := n.probe[side]; ix != nil {
		k, ok := n.probeKey[side].of(in)
		if !ok {
			return nil
		}
		return ix.buckets[k]
	}
	if side == 1 {
		return n.left.buffer
	}
	return n.right.buffer
}
