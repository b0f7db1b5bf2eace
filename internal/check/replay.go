package check

import (
	"errors"
	"fmt"
	"strings"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/sim"
)

// pendingMsg is one sent-but-undelivered message: the checker owns
// delivery order via the machine's send hook.
type pendingMsg struct {
	msg     *coherent.Msg
	deliver func()
}

// replayer wraps one machine instance being driven along one path.
// The checker rebuilds it from scratch for every explored transition
// except the first out of each expanded state, which reuses the replay
// that listed the choices; all machine code is deterministic, so equal
// paths yield equal states.
type replayer struct {
	cfg     *Config
	m       *coherent.Machine
	pool    []pendingMsg
	cursors []int
}

func newReplayer(cfg *Config) (*replayer, error) {
	mc := coherent.DefaultConfig(cfg.Procs)
	mc.CacheBytes = mc.BlockBytes * cfg.CacheLines
	mc.CacheSets = 1
	mc.Check = true
	mc.MaxEvents = cfg.DrainBudget
	m, err := coherent.NewMachine(mc, cfg.NewEngine())
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", cfg.Name, err)
	}
	r := &replayer{cfg: cfg, m: m, cursors: make([]int, len(cfg.Program))}
	m.SetSendHook(func(msg *coherent.Msg, deliver func()) {
		r.pool = append(r.pool, pendingMsg{msg: msg, deliver: deliver})
	})
	if cfg.LaneAudit {
		m.EnableLaneAudit()
	}
	return r, nil
}

func (r *replayer) addr(b coherent.BlockID) uint64 {
	return uint64(b) * uint64(r.m.Cfg.BlockBytes)
}

// choices enumerates the enabled transitions: each node that is idle
// and has program left may issue, and the head message of each
// (src, dst) channel may be delivered. The network model preserves
// send order between every node pair (see TestQuickPerPairFIFO), and
// the protocols rely on it — the tree teardown's tombstone scheme, for
// one, assumes a Replace_INV precedes any later wave on the same edge
// — so the checker explores arbitrary interleavings across channels
// but never reorders within one.
func (r *replayer) choices() []choice {
	var out []choice
	for n := range r.cfg.Program {
		if r.cursors[n] < len(r.cfg.Program[n]) && r.m.Outstanding(coherent.NodeID(n)) == 0 {
			out = append(out, choice{issue: n, deliver: -1})
		}
	}
	for i, p := range r.pool {
		if !r.channelHead(i, p.msg) {
			continue
		}
		out = append(out, choice{issue: -1, deliver: i})
	}
	return out
}

// channelHead reports whether pool entry i is the oldest message on
// its (src, dst) channel.
func (r *replayer) channelHead(i int, msg *coherent.Msg) bool {
	for _, q := range r.pool[:i] {
		if q.msg.Src == msg.Src && q.msg.Dst == msg.Dst {
			return false
		}
	}
	return true
}

// describe renders c against the current (pre-apply) state.
func (r *replayer) describe(c choice) string {
	if c.issue >= 0 {
		return fmt.Sprintf("node %d issues %s", c.issue, r.cfg.Program[c.issue][r.cursors[c.issue]])
	}
	return "deliver " + r.pool[c.deliver].msg.Canon()
}

// applyChecked performs one choice and drains the kernel, converting
// panics (broken-invariant assertions inside the machine or engine)
// and event-budget exhaustion (livelock) into violations.
func (r *replayer) applyChecked(c choice) (verr error) {
	defer func() {
		if p := recover(); p != nil {
			verr = fmt.Errorf("panic: %v", p)
		}
	}()
	var before []string
	if r.cfg.LaneAudit {
		before = r.laneSnapshot()
		r.m.LaneAuditReset()
	}
	if c.issue >= 0 {
		n := coherent.NodeID(c.issue)
		op := r.cfg.Program[c.issue][r.cursors[c.issue]]
		r.cursors[c.issue]++
		switch op.Kind {
		case OpRead:
			r.m.Access(n, r.addr(op.Block), false, 0, func(uint64) {})
		case OpWrite:
			r.m.Access(n, r.addr(op.Block), true, op.Value, func(uint64) {})
		case OpReplace:
			r.m.ReplaceBlock(n, op.Block)
		}
	} else {
		p := r.pool[c.deliver]
		r.pool = append(r.pool[:c.deliver], r.pool[c.deliver+1:]...)
		p.deliver()
	}
	// The model checker owns transport and requires the sequential
	// kernel (checked machines reject -shards), so driving Eng
	// directly is sound here.
	//dirccvet:allow shardsafe checker is sequential-only by construction
	if err := r.m.Eng.Run(); err != nil {
		if errors.Is(err, sim.ErrEventBudget) {
			return fmt.Errorf("livelock: %d kernel events without quiescing", r.cfg.DrainBudget)
		}
		return err
	}
	if r.cfg.LaneAudit {
		after := r.laneSnapshot()
		for n := range after {
			if after[n] != before[n] && !r.m.LaneAuditRan(coherent.NodeID(n)) {
				return fmt.Errorf("lane-partition: node %d's state changed with no event on its lane (%q -> %q)",
					n, before[n], after[n])
			}
		}
	}
	return nil
}

// laneSnapshot renders each node's cache-resident state for the
// program's blocks — the state the lane-partition audit guards. Only
// state a foreign lane could corrupt matters here: line states, values
// and protocol metadata; LRU order is excluded (it is touched only by
// the owner's processor-side entry points).
func (r *replayer) laneSnapshot() []string {
	out := make([]string, len(r.m.Nodes))
	for n := range r.m.Nodes {
		var sb strings.Builder
		for b := 0; b < r.cfg.Blocks; b++ {
			ln := r.m.Nodes[n].Cache.Lookup(coherent.BlockID(b))
			if ln == nil || ln.State == cache.Invalid {
				continue
			}
			fmt.Fprintf(&sb, "b%d %v %d %+v;", b, ln.State, ln.Val, ln.Meta)
		}
		out[n] = sb.String()
	}
	return out
}
