package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

func (s dirState) String() string {
	switch s {
	case uncached:
		return "uncached"
	case shared:
		return "shared"
	case dirty:
		return "dirty"
	}
	return fmt.Sprintf("dirState(%d)", uint8(s))
}

// AppendCanon implements coherent.CanonAppender.
func (meta *treeMeta) AppendCanon(b []byte) []byte { return coherent.AppendNodes(b, meta.children) }

// CanonState implements coherent.ProtocolState: directory entries with
// their root slots, in-progress ack aggregations, and victim-buffer
// tombstones. The torn ghost flag is deliberately excluded: it only
// relaxes a check, and any state reachable with a cycle has torn set
// on every path that reaches it.
func (e *Engine) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*entry)
		if en == nil {
			continue
		}
		if en.state == uncached && len(en.slots) == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.owner)
		b = binary.AppendUvarint(b, uint64(len(en.slots)))
		for _, s := range en.slots {
			b = coherent.AppendNode(b, s.node)
			b = binary.AppendVarint(b, int64(s.level))
		}
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
			b = append(b, byte(p.stage))
			b = coherent.AppendNode(b, p.wbFrom)
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
		b = binary.AppendUvarint(b, uint64(len(a.extra)))
		for _, d := range a.extra {
			b = coherent.AppendBool(coherent.AppendNode(b, d.to), d.toDir)
		}
	}
	for _, k := range sortedTombKeys(e.tombs) {
		b = coherent.AppendBlock(coherent.AppendNode(append(b, 3), k.n), k.b)
		b = coherent.AppendNodes(b, e.tombs[k.n][k.b])
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator: the directory
// knows the roots of the sharing trees plus the exclusive owner.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	var roots []coherent.NodeID
	for _, s := range en.slots {
		roots = append(roots, s.node)
	}
	if en.owner != coherent.NoNode {
		seen := false
		for _, r := range roots {
			if r == en.owner {
				seen = true
				break
			}
		}
		if !seen {
			roots = append(roots, en.owner)
		}
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy's
// child pointers plus the victim-buffer tombstones left below node n
// by replaced copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	var out []coherent.NodeID
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		out = append(out, childrenOf(ln)...)
	}
	out = append(out, e.tombs[n][b]...)
	return out
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
