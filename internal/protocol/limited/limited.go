// Package limited implements the bounded-pointer directory protocols:
// each block's home holds at most i node pointers. The schemes differ
// only in what the home does when a read finds all i pointers in use.
//
// Dir_iNB (non-broadcast) evicts one of the recorded copies: the home
// invalidates a round-robin victim pointer, waits for its
// acknowledgment, and installs the requester in the freed slot. This
// performs poorly when more than i processors actively share a block —
// the "unnecessary invalidations and read misses" cost of the paper's
// Table 1.
//
// Dir_iB (broadcast) instead sets an overflow bit; a subsequent write
// miss must broadcast invalidations to every node in the machine and
// collect n-1 acknowledgments.
//
// LimitLESS_i (Chaiken, Kubiatowicz and Agarwal, ASPLOS-IV 1991)
// interrupts the processor at the home, which spills the excess
// pointer to a software-managed table in normal memory. Every sharer
// stays recorded, as under the full map, but each trap to software
// costs trapCycles at the home: once when a pointer spills and again
// when a write miss must consult the software table to invalidate the
// spilled sharers. That software-handler delay is the disadvantage the
// paper cites ("2P+2 plus (P-4) software handler delay" for
// LimitLESS_4).
package limited

import (
	"fmt"
	"slices"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/sim"
	"dircc/internal/treemath"
)

// policy is what the home does on pointer overflow.
type policy uint8

const (
	evictVictim  policy = iota // Dir_iNB
	setBroadcast               // Dir_iB
	trapSoftware               // LimitLESS_i
)

// trapCycles is the software-handler cost charged per LimitLESS
// directory trap (pointer spill, or reading the spilled set on a write
// miss). LimitLESS on Alewife reported full-map-normalized overheads
// consistent with a few tens of cycles per trap on a 33 MHz Sparcle;
// 50 cycles is a representative value at this simulator's scale.
const trapCycles sim.Time = 50

type dirState uint8

const (
	uncached dirState = iota
	shared
	dirty
)

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

type entry struct {
	state     dirState
	ptrs      []coherent.NodeID // at most i hardware pointers
	sw        []coherent.NodeID // LimitLESS software-spilled pointers, sorted
	owner     coherent.NodeID
	broadcast bool // Dir_iB overflow bit
	rr        int  // Dir_iNB round-robin eviction cursor
	pend      *pending
}

type stage uint8

const (
	stageNone  stage = iota
	stageWb          // waiting for a dirty owner's data
	stageEvict       // Dir_iNB overflow: waiting for the victim's ack
	stageInv         // write miss: waiting for invalidation acks
)

type pending struct {
	req      *coherent.Msg
	stage    stage
	wbFrom   coherent.NodeID
	acksLeft int
}

// Engine implements Dir_iNB, Dir_iB or LimitLESS_i for one machine.
type Engine struct {
	ptrs   int
	policy policy
	trap   sim.Time // LimitLESS software-handler cost per trap
	m      *coherent.Machine
}

func newEngine(i int, p policy) *Engine {
	if i < 1 {
		panic(fmt.Sprintf("limited: need at least 1 pointer, got %d", i))
	}
	return &Engine{ptrs: i, policy: p, trap: trapCycles}
}

// NewNB returns a Dir_iNB engine with the given pointer count.
func NewNB(i int) *Engine { return newEngine(i, evictVictim) }

// NewB returns a Dir_iB engine with the given pointer count.
func NewB(i int) *Engine { return newEngine(i, setBroadcast) }

// NewLimitLESS returns a LimitLESS_i engine with the given hardware
// pointer count.
func NewLimitLESS(i int) *Engine { return newEngine(i, trapSoftware) }

// Name implements coherent.Engine ("Dir4NB", "Dir2B", "LimitLESS4", ...).
func (e *Engine) Name() string {
	switch e.policy {
	case setBroadcast:
		return fmt.Sprintf("Dir%dB", e.ptrs)
	case trapSoftware:
		return fmt.Sprintf("LimitLESS%d", e.ptrs)
	}
	return fmt.Sprintf("Dir%dNB", e.ptrs)
}

// Pointers returns i.
func (e *Engine) Pointers() int { return e.ptrs }

// Prepare implements coherent.Preparer: directory records live in the
// machine's per-home-node dir storage, so each record is only ever
// touched by its home's lane under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) { e.m = m }

// ShardSafeEngine implements coherent.ShardSafe: every handler touches
// only the dispatched node's cache state, its home's directory record,
// and the machine's synchronized cross-lane surfaces.
func (e *Engine) ShardSafeEngine() bool { return true }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

func (en *entry) recorded(n coherent.NodeID) bool {
	for _, p := range en.ptrs {
		if p == n {
			return true
		}
	}
	_, found := slices.BinarySearch(en.sw, n)
	return found
}

func (en *entry) drop(n coherent.NodeID) {
	for i, p := range en.ptrs {
		if p == n {
			en.ptrs = append(en.ptrs[:i], en.ptrs[i+1:]...)
			return
		}
	}
	if i, found := slices.BinarySearch(en.sw, n); found {
		en.sw = slices.Delete(en.sw, i, i+1)
	}
}

// StartMiss implements coherent.Engine.
func (e *Engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	typ := coherent.MsgReadReq
	if txn.Write {
		typ = coherent.MsgWriteReq
	}
	m.Send(&coherent.Msg{
		Type: typ, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
		Requester: txn.Node, Data: txn.Value, HasData: txn.Write,
		ToDir: true, Gated: true, Aux: coherent.NoNode,
	})
}

// HomeRequest implements coherent.Engine.
func (e *Engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.state == dirty && en.owner != msg.Requester {
			en.pend = &pending{req: msg, stage: stageWb, wbFrom: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Aux: coherent.NoNode,
			})
			return
		}
		e.admitRead(m, en, msg)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.state == dirty && en.owner != msg.Requester {
			en.pend = &pending{req: msg, stage: stageWb, wbFrom: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, en, msg)
	default:
		panic("limited: unexpected gated request " + msg.Type.String())
	}
}

// admitRead records the requester, handling pointer overflow per the
// engine's policy, then serves the data.
func (e *Engine) admitRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	trap := sim.Time(0)
	switch {
	case en.recorded(msg.Requester):
		// Re-read after a silent replacement; pointer already present.
	case len(en.ptrs) < e.ptrs:
		en.ptrs = append(en.ptrs, msg.Requester)
	case e.policy == setBroadcast:
		// Dir_iB: set the overflow bit; the copy is unrecorded.
		en.broadcast = true
		m.CtrAt(home).PointerEvicts++ // counts overflow events for every policy
	case e.policy == trapSoftware:
		// LimitLESS: the home's processor traps to software and spills
		// the new pointer.
		i, _ := slices.BinarySearch(en.sw, msg.Requester)
		en.sw = slices.Insert(en.sw, i, msg.Requester)
		m.CtrAt(home).PointerEvicts++
		trap = e.trap
	default:
		// Dir_iNB: invalidate a round-robin victim pointer first.
		victim := en.ptrs[en.rr%len(en.ptrs)]
		en.rr++
		m.CtrAt(home).PointerEvicts++
		m.CtrAt(home).Invalidations++
		en.pend = &pending{req: msg, stage: stageEvict, acksLeft: 1, wbFrom: coherent.NoNode}
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: victim, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode,
		})
		return
	}
	if en.state == uncached {
		en.state = shared
	}
	if e.policy != trapSoftware {
		e.serveRead(m, msg)
		return
	}
	// The reply waits for the home's software handler; with nothing
	// spilled this is still a zero-cycle hop through the home.
	m.ScheduleAt(home, trap, func() { e.serveRead(m, msg) })
}

func (e *Engine) serveRead(m *coherent.Machine, msg *coherent.Msg) {
	b := msg.Block
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
		})
		m.ReleaseHome(b)
	})
}

// startInvalidation launches the write-miss invalidation round: the
// recorded pointers, every node once Dir_iB's overflow bit is set, or
// under LimitLESS every recorded sharer in node order. Consulting the
// LimitLESS software table costs one trap plus a per-spilled-pointer
// charge — the "(P-4) software handler delay" of the paper's Table 1.
func (e *Engine) startInvalidation(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	pend := &pending{req: msg, stage: stageInv, wbFrom: coherent.NoNode}
	en.pend = pend
	targets := en.ptrs
	delay := sim.Time(0)
	switch {
	case e.policy == trapSoftware:
		targets = slices.Concat(en.ptrs, en.sw)
		slices.Sort(targets)
		spilled := len(en.sw)
		if _, found := slices.BinarySearch(en.sw, msg.Requester); found {
			spilled--
		}
		if spilled > 0 {
			m.CtrAt(home).Broadcasts++ // counts software-assisted invalidation rounds
			delay = e.trap + sim.Time(spilled)*e.trap/4
		}
	case en.broadcast:
		m.CtrAt(home).Broadcasts++
		targets = make([]coherent.NodeID, m.Cfg.Procs)
		for n := range targets {
			targets[n] = coherent.NodeID(n)
		}
	}
	for _, n := range targets {
		if n != msg.Requester {
			pend.acksLeft++
		}
	}
	if pend.acksLeft == 0 {
		e.grantWrite(m, en, msg)
		return
	}
	if e.policy != trapSoftware {
		e.sendInvs(m, msg, targets)
		return
	}
	m.ScheduleAt(home, delay, func() { e.sendInvs(m, msg, targets) })
}

// sendInvs invalidates every target but the write's requester.
func (e *Engine) sendInvs(m *coherent.Machine, msg *coherent.Msg, targets []coherent.NodeID) {
	b := msg.Block
	home := m.Home(b)
	for _, n := range targets {
		if n == msg.Requester {
			continue
		}
		m.CtrAt(home).Invalidations++
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode,
		})
	}
}

func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = dirty
	en.owner = msg.Requester
	en.ptrs = []coherent.NodeID{msg.Requester}
	en.sw = nil
	en.broadcast = false
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
			RelHome: true,
		})
	})
}

// HomeMsg implements coherent.Engine.
func (e *Engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		p := en.pend
		if p == nil || p.acksLeft <= 0 {
			panic("limited: unexpected InvAck")
		}
		p.acksLeft--
		if p.acksLeft > 0 {
			return
		}
		switch p.stage {
		case stageEvict:
			// Victim gone; record the requester and serve.
			en.drop(msg.Src)
			en.ptrs = append(en.ptrs, p.req.Requester)
			en.pend = nil
			e.serveRead(m, p.req)
		case stageInv:
			e.grantWrite(m, en, p.req)
		default:
			panic("limited: InvAck in wrong stage")
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.WritebackValue(msg.Block, msg.Data)
		en.drop(msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = shared
			if len(en.ptrs) == 0 && len(en.sw) == 0 && !en.broadcast {
				en.state = uncached
			}
		}
		if p := en.pend; p != nil && p.stage == stageWb && p.wbFrom == msg.Src {
			req := p.req
			en.pend = nil
			if msg.Write {
				// RM_WW recall: the demoted owner keeps a shared copy.
				en.ptrs = append(en.ptrs, msg.Src)
				en.state = shared
			}
			if req.Type == coherent.MsgReadReq {
				e.admitRead(m, en, req)
			} else {
				e.startInvalidation(m, en, req)
			}
		}
	default:
		panic("limited: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
func (e *Engine) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	node := m.Nodes[n]
	switch msg.Type {
	case coherent.MsgDataReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("limited: DataReply without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, nil)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("limited: WriteReply without matching write txn")
		}
		// The home gate's release rides on the reply itself (RelHome):
		// the machine runs it as a companion event at the home.
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, nil)
	case coherent.MsgInv:
		m.Invalidate(n, msg.Block)
		m.Send(&coherent.Msg{
			Type: coherent.MsgInvAck, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode,
		})
	case coherent.MsgWbReq:
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State != cache.Exclusive {
			return // voluntary writeback already ahead of us
		}
		data := ln.Val
		if msg.Write {
			m.Invalidate(n, msg.Block)
		} else {
			ln.State = cache.Valid
			m.TraceState(n, msg.Block, cache.Exclusive, cache.Valid)
		}
		m.Send(&coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("limited: unexpected cache message " + msg.Type.String())
	}
}

// OnEvict implements coherent.Engine: shared copies drop silently,
// exclusive copies write back.
func (e *Engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	if ln.State != cache.Exclusive {
		return
	}
	m.Send(&coherent.Msg{
		Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
		HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode,
	})
}

// DescribeBlock implements coherent.BlockDumper for stall diagnostics.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		return "uncached (no entry)"
	}
	s := fmt.Sprintf("%s owner=%d ptrs=%v sw=%v broadcast=%v", en.state, en.owner, en.ptrs, en.sw, en.broadcast)
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, stage=%d, wbFrom=%d, acksLeft=%d}",
			p.req.Type, p.req.Requester, p.stage, p.wbFrom, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine using the paper's
// B·i·n·log n formula. Only the hardware pointers count: the LimitLESS
// software table lives in ordinary memory.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	return int64(blocksPerNode) * n * int64(e.ptrs) * int64(treemath.CeilLog2(cfg.Procs))
}
