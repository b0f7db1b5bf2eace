package limited

import (
	"encoding/binary"
	"io"
	"slices"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

// CanonState implements coherent.ProtocolState. The round-robin cursor
// is included: it selects future overflow victims.
func (e *Engine) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, ok := e.m.Dir(blk).(*entry)
		if !ok {
			continue
		}
		if en.state == uncached && len(en.ptrs) == 0 && len(en.sw) == 0 && en.owner == coherent.NoNode &&
			!en.broadcast && en.rr == 0 && en.pend == nil {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.owner)
		b = coherent.AppendNodes(b, en.ptrs)
		b = coherent.AppendNodes(b, en.sw)
		b = coherent.AppendBool(b, en.broadcast)
		b = binary.AppendVarint(b, int64(en.rr))
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
			b = append(b, byte(p.stage))
			b = coherent.AppendNode(b, p.wbFrom)
			b = binary.AppendVarint(b, int64(p.acksLeft))
		}
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator. With the
// Dir_iB overflow bit set, copies are unrecorded by design and any
// node may legally hold one; otherwise the hardware pointers, the
// LimitLESS software-spilled set and the owner record every copy.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	if en.broadcast {
		all := make([]coherent.NodeID, m.Cfg.Procs)
		for i := range all {
			all[i] = coherent.NodeID(i)
		}
		return all
	}
	roots := slices.Concat(en.ptrs, en.sw)
	if en.owner != coherent.NoNode {
		roots = append(roots, en.owner)
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: bounded-pointer
// directory caches hold no pointers to other copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return nil
}
