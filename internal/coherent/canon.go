package coherent

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dircc/internal/cache"
)

// This file defines the canonical-state surface the model checker
// (internal/check) builds on: a deterministic binary encoding of
// everything that can influence future machine behavior, plus the
// interfaces engines implement to expose their private directory state.
//
// The encoding is append-based (varints, tag bytes, length prefixes)
// and must be unambiguous: two states encode equally only if they are
// behaviorally indistinguishable. Every variable-length run is either
// length-prefixed or a sequence of records that each start with a
// nonzero tag byte and end at a 0 byte, so no field can bleed into the
// next.
//
// Simulated time is deliberately excluded everywhere — two machines
// that differ only in their clocks behave identically under the
// checker's transport interception, and including time would keep the
// explored state space from ever converging.

// ProtocolState is implemented by engines that can write a canonical
// encoding of all engine-private state (directory entries, aggregation
// counters, victim/tombstone buffers). The encoding must be
// deterministic — map iteration sorted, nothing derived from simulated
// time or statistics — and every record must start with a nonzero tag
// byte (the machine terminates the engine section with a 0 byte).
// Engines write through EncodeCanon, which appends in place when w is
// the checker's *CanonBuf.
type ProtocolState interface {
	CanonState(w io.Writer)
}

// CoverageEnumerator is implemented by engines whose directory must
// account for every cached copy. CoverageRoots returns the nodes the
// directory entry for b references directly (pointer slots, list head,
// tree roots, exclusive owner). CoverageEdges returns the nodes that
// node n's recorded state for b references (tree children, list next
// pointers, victim/tombstone buffers) — the checker takes the closure
// of roots under edges and requires every stable copy to be inside it
// or be the target of an in-flight teardown message.
type CoverageEnumerator interface {
	CoverageRoots(m *Machine, b BlockID) []NodeID
	CoverageEdges(m *Machine, b BlockID, n NodeID) []NodeID
}

// ShapeChecker is implemented by engines whose directory structure has
// a well-formedness invariant beyond coverage (bounded root count,
// bounded fan-out, acyclicity). CheckShape returns a descriptive error
// when block b's structure is malformed.
type ShapeChecker interface {
	CheckShape(m *Machine, b BlockID) error
}

// CanonAppender is implemented by the engine-private values the
// machine encodes on an engine's behalf: cache-line metadata
// (cache.Line.Meta) and per-transaction scratch state (Txn.Scratch).
// AppendCanon appends a self-delimiting encoding of every field that
// can influence future behavior.
type CanonAppender interface {
	AppendCanon(b []byte) []byte
}

// CanonBuf is the reusable buffer a canonical state is encoded into.
// It implements io.Writer so it can pass through ProtocolState (and
// any decorator that forwards the writer unchanged) to the engine.
type CanonBuf struct {
	B []byte
}

// Write appends p.
func (c *CanonBuf) Write(p []byte) (int, error) {
	c.B = append(c.B, p...)
	return len(p), nil
}

// EncodeCanon appends enc's encoding to w: in place when w is a
// *CanonBuf, otherwise through one Write of a fresh slice.
func EncodeCanon(w io.Writer, enc func(b []byte) []byte) {
	if c, ok := w.(*CanonBuf); ok {
		c.B = enc(c.B)
		return
	}
	// ProtocolState has no error path; a writer that can fail is the
	// caller's to check.
	w.Write(enc(nil))
}

// AppendNode appends a node id (NoNode included) as a signed varint.
func AppendNode(b []byte, n NodeID) []byte {
	return binary.AppendVarint(b, int64(n))
}

// AppendNodes appends a length-prefixed list of node ids.
func AppendNodes(b []byte, ns []NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = AppendNode(b, n)
	}
	return b
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBlock appends a block id as an unsigned varint.
func AppendBlock(b []byte, blk BlockID) []byte {
	return binary.AppendUvarint(b, uint64(blk))
}

// appendOpaque appends engine-private state the machine holds on the
// engine's behalf: 0 for nil, else 1 and the value's own encoding. A
// value without an encoding would silently merge distinct states, so
// it panics instead.
func appendOpaque(b []byte, v any) []byte {
	if v == nil {
		return append(b, 0)
	}
	ca, ok := v.(CanonAppender)
	if !ok {
		panic(fmt.Sprintf("coherent: %T has no canonical encoding (implement CanonAppender)", v))
	}
	return ca.AppendCanon(append(b, 1))
}

// AppendCanon appends a self-delimiting encoding of every field of msg
// that can influence delivery behavior (probe bookkeeping excluded).
func (msg *Msg) AppendCanon(b []byte) []byte {
	b = append(b, byte(msg.Type))
	b = AppendNode(b, msg.Src)
	b = AppendNode(b, msg.Dst)
	b = AppendBlock(b, msg.Block)
	b = AppendNode(b, msg.Requester)
	b = AppendNode(b, msg.Aux)
	b = AppendNodes(b, msg.Ptrs)
	var flags byte
	for i, f := range [...]bool{msg.HasData, msg.Write, msg.AckDir, msg.SibAck, msg.SelfWave, msg.ToDir, msg.Gated, msg.RelHome} {
		if f {
			flags |= 1 << i
		}
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, msg.Data)
	b = AppendNode(b, msg.AckTo)
	return binary.AppendUvarint(b, msg.Seq)
}

// Canon renders msg for humans (the model checker's witness steps).
func (msg *Msg) Canon() string {
	return fmt.Sprintf("%s %d>%d b%d r%d a%d p%v hd%v d%d w%v at%d ad%v sb%v sw%v td%v g%v rh%v sq%d",
		msg.Type, msg.Src, msg.Dst, msg.Block, msg.Requester, msg.Aux, msg.Ptrs,
		msg.HasData, msg.Data, msg.Write, msg.AckTo, msg.AckDir, msg.SibAck,
		msg.SelfWave, msg.ToDir, msg.Gated, msg.RelHome, msg.Seq)
}

// appendMsgs appends a length-prefixed message list.
func appendMsgs(b []byte, msgs []*Msg) []byte {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, msg := range msgs {
		b = msg.AppendCanon(b)
	}
	return b
}

// CanonState appends the machine's canonical encoding to c: cache
// contents in LRU order (frame position determines future victims),
// outstanding transactions, home-gate queues, the authoritative store,
// and — when the engine implements ProtocolState — all engine-private
// directory state. Two machines with equal encodings are behaviorally
// indistinguishable to the model checker.
func (m *Machine) CanonState(c *CanonBuf) {
	b := c.B
	for _, node := range m.Nodes {
		node.Cache.ForEachMRU(func(ln *cache.Line) {
			if node.Cache.Lookup(ln.Block) != ln || ln.State == cache.Invalid {
				// A free frame: its LRU position still matters, its old
				// tag does not.
				b = append(b, 1)
				return
			}
			b = AppendBlock(append(b, 2), ln.Block)
			b = append(b, byte(ln.State))
			b = binary.AppendUvarint(b, ln.Val)
			b = AppendBool(b, ln.Pinned)
			b = appendOpaque(b, ln.Meta)
		})
		b = append(b, 0)
	}
	for n := range m.txns {
		for _, txn := range m.nodeTxns(NodeID(n)) {
			b = AppendNode(append(b, 1), NodeID(n))
			b = AppendBlock(b, txn.Block)
			b = AppendBool(b, txn.Write)
			b = binary.AppendUvarint(b, txn.Value)
			b = AppendBool(b, txn.Served)
			b = AppendBool(b, txn.RMW != nil)
			b = appendMsgs(b, txn.Deferred)
			b = appendOpaque(b, txn.Scratch)
		}
	}
	b = append(b, 0)
	for home := range m.gates {
		for _, blk := range sortedBlocks(m.gates[home]) {
			g := m.gates[home][blk]
			b = AppendBlock(append(b, 1), blk)
			b = AppendBool(b, g.busy)
			b = appendMsgs(b, g.queue)
		}
	}
	b = append(b, 0)
	for blk := range m.Store.touched {
		if !m.Store.touched[blk] {
			continue
		}
		b = AppendBlock(append(b, 1), BlockID(blk))
		b = binary.AppendUvarint(b, m.Store.cur[blk])
		b = AppendBool(b, m.Store.busy[blk])
		if m.Store.busy[blk] {
			b = binary.AppendUvarint(b, m.Store.prev[blk])
		}
	}
	c.B = append(b, 0)
	if ps, ok := m.proto.(ProtocolState); ok {
		ps.CanonState(c)
	}
	c.B = append(c.B, 0)
}

func sortedBlocks[V any](m map[BlockID]V) []BlockID {
	out := make([]BlockID, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
