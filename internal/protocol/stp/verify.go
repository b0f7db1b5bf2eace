package stp

import (
	"encoding/binary"
	"io"
	"sort"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/core"
)

// Verification hooks for the model checker (internal/check).

// AppendCanon implements coherent.CanonAppender.
func (meta *stpMeta) AppendCanon(b []byte) []byte {
	for i := range meta.children {
		b = coherent.AppendNode(b, meta.children[i])
		b = binary.AppendVarint(b, int64(meta.counts[i]))
	}
	return b
}

// CanonState implements coherent.ProtocolState: directory entries,
// in-progress ack aggregations, and victim-buffer tombstones.
func (e *Engine) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*entry)
		if en == nil {
			continue
		}
		if en.state == uncached && en.root == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.root)
		b = coherent.AppendNode(b, en.owner)
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
			b = binary.AppendVarint(b, int64(p.acksLeft))
		}
	}
	for _, k := range sortedAggKeys(e.aggs) {
		a := e.aggs[k.n][k.b]
		b = coherent.AppendBlock(coherent.AppendNode(append(b, 2), k.n), k.b)
		b = coherent.AppendBool(b, a.armed)
		b = binary.AppendVarint(b, int64(a.left))
		b = coherent.AppendNode(b, a.to)
		b = coherent.AppendBool(b, a.toDir)
	}
	for _, k := range sortedTombKeys(e.tombs) {
		b = coherent.AppendBlock(coherent.AppendNode(append(b, 3), k.n), k.b)
		b = coherent.AppendNodes(b, e.tombs[k.n][k.b])
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	var roots []coherent.NodeID
	if en.root != coherent.NoNode {
		roots = append(roots, en.root)
	}
	if en.owner != coherent.NoNode && en.owner != en.root {
		roots = append(roots, en.owner)
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy's
// child pointers plus the victim-buffer tombstones left by replaced
// copies below node n.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	var out []coherent.NodeID
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		out = append(out, liveChildren(ln)...)
	}
	out = append(out, e.tombs[n][b]...)
	return out
}

// CheckShape implements coherent.ShapeChecker: STP keeps at most one
// root per block and at most two live children per copy, with live
// child edges forming no cycle until the first teardown (see
// core.CheckForestShape for why teardown relaxes acyclicity).
func (e *Engine) CheckShape(m *coherent.Machine, b coherent.BlockID) error {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	var roots []coherent.NodeID
	if en.root != coherent.NoNode {
		roots = append(roots, en.root)
	}
	// torn is per-node ghost state written on the tearing node's lane;
	// this quiesced check reads the union.
	torn := false
	for _, tm := range e.torn {
		if tm[b] {
			torn = true
			break
		}
	}
	return core.CheckForestShape(roots, 1, 2, !torn, func(n coherent.NodeID) []coherent.NodeID {
		ln := m.Nodes[n].Cache.Lookup(b)
		if ln == nil || ln.State == cache.Invalid {
			return nil
		}
		return liveChildren(ln)
	})
}

func sortedAggKeys(perNode []map[coherent.BlockID]*agg) []aggKey {
	var out []aggKey
	for n, mm := range perNode {
		for b := range mm {
			out = append(out, aggKey{n: coherent.NodeID(n), b: b})
		}
	}
	sortKeys(out)
	return out
}

func sortedTombKeys(perNode []map[coherent.BlockID][]coherent.NodeID) []aggKey {
	var out []aggKey
	for n, mm := range perNode {
		for b := range mm {
			out = append(out, aggKey{n: coherent.NodeID(n), b: b})
		}
	}
	sortKeys(out)
	return out
}

func sortKeys(keys []aggKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].b != keys[j].b {
			return keys[i].b < keys[j].b
		}
		return keys[i].n < keys[j].n
	})
}
