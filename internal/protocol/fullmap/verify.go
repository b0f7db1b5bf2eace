package fullmap

import (
	"encoding/binary"
	"io"
	"sort"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

// CanonState implements coherent.ProtocolState: a deterministic
// encoding of every directory entry that differs from the uncached
// zero state.
func (e *Engine) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, ok := e.m.Dir(blk).(*entry)
		if !ok {
			continue
		}
		if en.state == uncached && len(en.sharers) == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.owner)
		b = coherent.AppendNodes(b, sortedNodes(en.sharers))
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
			b = coherent.AppendNode(b, p.wantWb)
			b = binary.AppendVarint(b, int64(p.acksLeft))
		}
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator: the presence
// bits plus the owner pointer record every copy directly.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := sortedNodes(en.sharers)
	if en.owner != coherent.NoNode {
		roots = append(roots, en.owner)
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: full-map caches
// hold no pointers to other copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return nil
}

func sortedNodes(set map[coherent.NodeID]bool) []coherent.NodeID {
	out := make([]coherent.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
