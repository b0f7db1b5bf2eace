package list

import (
	"encoding/binary"
	"io"
	"sort"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

// AppendCanon implements coherent.CanonAppender.
func (meta *sllMeta) AppendCanon(b []byte) []byte { return coherent.AppendNode(b, meta.next) }

// AppendCanon implements coherent.CanonAppender.
func (meta *sciMeta) AppendCanon(b []byte) []byte {
	return coherent.AppendNode(coherent.AppendNode(b, meta.prev), meta.next)
}

// AppendCanon implements coherent.CanonAppender.
func (ps *purgeState) AppendCanon(b []byte) []byte { return coherent.AppendNode(b, ps.cur) }

// CanonState implements coherent.ProtocolState for the singly linked
// list engine. The victim buffers and attach stamps are part of the
// canonical state: a forward reaching a replaced head is served from
// the victim value or deferred according to the stamps, so two states
// differing only there can behave differently. The stamps are counts
// of serialized requests — a function of which operations have
// completed, not of their interleaving — so including them does not
// stop converging interleavings from deduplicating.
func (e *SLL) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *SLL) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*sllEntry)
		if en == nil {
			continue
		}
		if en.state == uncached && en.head == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil && en.seq == 0 {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.head)
		b = coherent.AppendNode(b, en.owner)
		b = binary.AppendUvarint(b, en.seq)
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
		}
	}
	b = appendNodeBlockValues(b, 2, e.gone)
	return appendNodeBlockValues(b, 3, e.seqs)
}

// appendNodeBlockValues appends one tagged record per entry of the
// per-node maps, in (block, node) order.
func appendNodeBlockValues(b []byte, tag byte, perNode []map[coherent.BlockID]uint64) []byte {
	for _, k := range sortedNodeBlocks(perNode) {
		b = coherent.AppendBlock(coherent.AppendNode(append(b, tag), k.n), k.b)
		b = binary.AppendUvarint(b, perNode[k.n][k.b])
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *SLL) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*sllEntry)
	if en == nil {
		return nil
	}
	return headOwnerRoots(en.head, en.owner)
}

// CoverageEdges implements coherent.CoverageEnumerator: each live copy
// points at its list successor.
func (e *SLL) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	ln := m.Nodes[n].Cache.Lookup(b)
	if ln == nil || ln.State == cache.Invalid {
		return nil
	}
	if meta, ok := ln.Meta.(*sllMeta); ok && meta.next != coherent.NoNode {
		return []coherent.NodeID{meta.next}
	}
	return nil
}

// CanonState implements coherent.ProtocolState for the SCI engine.
// Tombstones are part of the canonical state: they steer in-flight
// purges around replaced nodes. Tombstones come from the per-node
// maps and attaches from the home-resident entries; this quiesced
// reader encodes both in (block, node) order.
func (e *SCI) CanonState(w io.Writer) { coherent.EncodeCanon(w, e.appendCanon) }

func (e *SCI) appendCanon(b []byte) []byte {
	blocks := e.m.DirBlocks()
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		if en.state == uncached && en.head == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendBlock(append(b, 1), blk)
		b = append(b, byte(en.state))
		b = coherent.AppendNode(b, en.head)
		b = coherent.AppendNode(b, en.owner)
		b = coherent.AppendBool(b, en.pend != nil)
		if p := en.pend; p != nil {
			b = p.req.AppendCanon(b)
		}
	}
	for _, k := range sortedNodeBlocks(e.tombs) {
		b = coherent.AppendBlock(coherent.AppendNode(append(b, 2), k.n), k.b)
		b = coherent.AppendNode(b, e.tombs[k.n][k.b])
	}
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		for _, r := range sortedAttachers(en.attach) {
			b = coherent.AppendBlock(coherent.AppendNode(append(b, 3), r), blk)
			b = coherent.AppendNode(b, en.attach[r])
		}
	}
	// The home-resident links are authoritative for eviction splices,
	// so two states differing only in links can behave differently.
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		for _, r := range sortedLinkNodes(en.links) {
			lk := en.links[r]
			b = coherent.AppendBlock(coherent.AppendNode(append(b, 4), r), blk)
			b = coherent.AppendNode(coherent.AppendNode(b, lk.prev), lk.next)
		}
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *SCI) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*sciEntry)
	if en == nil {
		return nil
	}
	return headOwnerRoots(en.head, en.owner)
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy
// points at its successor; a replaced node's tombstone keeps its old
// successor reachable until an in-flight purge consumes it.
func (e *SCI) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	var out []coherent.NodeID
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		if meta := sciMetaOf(ln); meta != nil && meta.next != coherent.NoNode {
			out = append(out, meta.next)
		}
	}
	if t, ok := e.tombs[n][b]; ok && t != coherent.NoNode {
		out = append(out, t)
	}
	return out
}

func headOwnerRoots(head, owner coherent.NodeID) []coherent.NodeID {
	var roots []coherent.NodeID
	if head != coherent.NoNode {
		roots = append(roots, head)
	}
	if owner != coherent.NoNode && owner != head {
		roots = append(roots, owner)
	}
	return roots
}

// sortedNodeBlocks lists the (node, block) keys of per-node maps in
// (block, node) order.
func sortedNodeBlocks[V any](perNode []map[coherent.BlockID]V) []tombKey {
	var out []tombKey
	for n, mm := range perNode {
		for b := range mm {
			out = append(out, tombKey{n: coherent.NodeID(n), b: b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].b != out[j].b {
			return out[i].b < out[j].b
		}
		return out[i].n < out[j].n
	})
	return out
}

func sortedLinkNodes(links map[coherent.NodeID]sciLink) []coherent.NodeID {
	out := make([]coherent.NodeID, 0, len(links))
	for r := range links {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedAttachers(attach map[coherent.NodeID]coherent.NodeID) []coherent.NodeID {
	out := make([]coherent.NodeID, 0, len(attach))
	for r := range attach {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
