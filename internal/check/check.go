// Package check is an exhaustive state-space model checker for the
// protocol engines. It drives a real coherent.Machine — the same code
// the simulator runs — through every interleaving of a small concurrent
// program's operations and of the protocol messages they generate, and
// asserts the coherence invariants on every reachable state.
//
// Nondeterminism is confined to two sources: which processor issues its
// next program operation, and which in-flight message is delivered
// next. The machine's transport is intercepted (Machine.SetSendHook) so
// the checker owns the set of undelivered messages; between choices the
// event kernel is drained to quiescence. This is a sound partial-order
// reduction for this machine model: nodes interact only through
// messages and the home gates, so every behavior of the timed simulator
// is a prefix-equivalent reordering of some drained interleaving (see
// DESIGN.md, "Verification").
//
// States are deduplicated by the sha256 digest of a binary canonical
// encoding that excludes simulated time (coherent.Machine.CanonState).
// Exploration is breadth-first over replayed paths, so the first
// violation found comes with a minimal message-interleaving witness.
package check

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"dircc/internal/coherent"
	"dircc/internal/obs"
)

// OpKind is the kind of one program operation.
type OpKind uint8

const (
	// OpRead is a shared-memory load.
	OpRead OpKind = iota
	// OpWrite is a shared-memory store.
	OpWrite
	// OpReplace forces the node to replace its cached copy, as if the
	// frame were reclaimed by a conflicting miss (silent replacement,
	// Replace_INV, writeback — whatever the engine does on eviction).
	OpReplace
)

// Op is one operation of the concurrent program driving the machine.
type Op struct {
	Kind  OpKind
	Block coherent.BlockID
	// Value is the datum stored by an OpWrite. Distinct values across
	// the program make the data-coherence checks discriminating.
	Value uint64
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read b%d", o.Block)
	case OpWrite:
		return fmt.Sprintf("write b%d := %d", o.Block, o.Value)
	case OpReplace:
		return fmt.Sprintf("replace b%d", o.Block)
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Config describes one model-checking run: an engine factory, a tiny
// machine, and a concurrent program (one operation sequence per node,
// executed in program order; operations of different nodes interleave
// freely).
type Config struct {
	// Name labels the run in results and witness files.
	Name string
	// NewEngine builds a fresh protocol engine. It is called once per
	// replay, so it must return an engine with no shared state.
	NewEngine func() coherent.Engine
	// Procs is the number of nodes (the paper's P; keep it in 2..4).
	Procs int
	// Blocks is the number of shared blocks the program touches.
	Blocks int
	// CacheLines is the per-node cache capacity in lines; 0 means 1.
	// One-line caches make conflicting blocks exercise replacement.
	CacheLines int
	// Program holds each node's operation sequence. Nodes beyond
	// len(Program) issue nothing.
	Program [][]Op
	// MaxStates aborts the run when the visited set exceeds it
	// (0 = 500000). Hitting the cap is an error, not a violation.
	MaxStates int
	// DrainBudget bounds the kernel events of one replayed path
	// (0 = 1 << 20). Exhausting it is reported as a livelock violation.
	DrainBudget uint64
	// LaneAudit turns on the lane-partition abstraction: around every
	// explored step the replayer additionally asserts that a node's
	// cache-resident state changed only if that node's lane executed a
	// sanctioned event during the step (a scheduled node event, a
	// message delivery, or a global op). This is the sharded kernel's
	// ownership contract made observable on the sequential machine —
	// an engine that reaches across lanes inline behaves identically
	// sequentially and only diverges under the parallel kernel, so no
	// state invariant can catch it; the audit can. The dynamic
	// counterpart of the laneguard static analyzer.
	LaneAudit bool
}

func (c *Config) setDefaults() error {
	if c.NewEngine == nil {
		return fmt.Errorf("check: %s: NewEngine is nil", c.Name)
	}
	if c.Procs < 2 {
		return fmt.Errorf("check: %s: need at least 2 procs, got %d", c.Name, c.Procs)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("check: %s: need at least 1 block, got %d", c.Name, c.Blocks)
	}
	if c.CacheLines == 0 {
		c.CacheLines = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 500000
	}
	if c.DrainBudget == 0 {
		c.DrainBudget = 1 << 20
	}
	if len(c.Program) > c.Procs {
		return fmt.Errorf("check: %s: program has %d node sequences for %d procs", c.Name, len(c.Program), c.Procs)
	}
	for _, ops := range c.Program {
		for _, op := range ops {
			if int(op.Block) >= c.Blocks {
				return fmt.Errorf("check: %s: op %s outside the %d-block range", c.Name, op, c.Blocks)
			}
		}
	}
	return nil
}

// choice is one nondeterministic step: either node issue >= 0 issues
// its next program operation, or the pool message at index deliver is
// delivered.
type choice struct {
	issue   int
	deliver int
}

// Stats summarizes one exhaustive run.
type Stats struct {
	// States is the number of distinct canonical states reached.
	States int
	// Transitions is the number of state transitions explored.
	Transitions int
	// Terminals is the number of quiescent end states.
	Terminals int
	// MaxDepth is the longest explored path, in choices.
	MaxDepth int
}

// Violation is an invariant failure together with its minimal witness.
type Violation struct {
	// Config is the run's name.
	Config string
	// Err describes the violated invariant.
	Err string
	// Steps is the human-readable witness: the shortest sequence of
	// issue/deliver choices reaching the violation.
	Steps []string
	// Trace holds the protocol events of the witness replay in the
	// observability layer's format (write with Trace.WriteJSONL).
	Trace *obs.Trace
}

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\nwitness (%d steps):\n", v.Config, v.Err, len(v.Steps))
	for i, s := range v.Steps {
		fmt.Fprintf(&sb, "  %2d. %s\n", i+1, s)
	}
	return sb.String()
}

// Run explores every reachable state of cfg and returns the first
// invariant violation found (on the shortest path that exhibits one),
// or nil with the exploration stats if the full space is clean. The
// error return reports infrastructure problems — bad config, state cap
// exceeded — not protocol violations.
func Run(cfg Config) (Stats, *Violation, error) {
	if err := cfg.setDefaults(); err != nil {
		return Stats{}, nil, err
	}
	var st Stats

	// The initial state: empty caches, nothing in flight.
	r, err := newReplayer(&cfg)
	if err != nil {
		return st, nil, err
	}
	if verr := r.checkInvariants(); verr != nil {
		return st, makeWitness(&cfg, nil, verr), nil
	}
	var enc encoder
	visited := map[[sha256.Size]byte]bool{enc.hash(r): true}
	st.States = 1

	type node struct {
		path []choice
	}
	queue := []node{{}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if d := len(cur.path); d > st.MaxDepth {
			st.MaxDepth = d
		}

		r, err := replayTo(&cfg, cur.path)
		if err != nil {
			return st, nil, err
		}
		choices := r.choices()
		if len(choices) == 0 {
			st.Terminals++
			if verr := r.checkTerminal(); verr != nil {
				return st, makeWitness(&cfg, cur.path, verr), nil
			}
			continue
		}
		for i, c := range choices {
			// The expansion replay already stands at cur.path, so the
			// first choice is applied to it; the rest replay afresh.
			if i > 0 {
				if r, err = replayTo(&cfg, cur.path); err != nil {
					return st, nil, err
				}
			}
			st.Transitions++
			verr := r.applyChecked(c)
			if verr == nil {
				verr = r.checkInvariants()
			}
			path := append(append([]choice(nil), cur.path...), c)
			if verr != nil {
				return st, makeWitness(&cfg, path, verr), nil
			}
			h := enc.hash(r)
			if visited[h] {
				continue
			}
			if len(visited) >= cfg.MaxStates {
				return st, nil, fmt.Errorf("check: %s: state space exceeds the %d-state cap", cfg.Name, cfg.MaxStates)
			}
			visited[h] = true
			st.States++
			queue = append(queue, node{path: path})
		}
	}
	return st, nil, nil
}

// replayTo rebuilds a fresh machine and replays path on it. Paths are
// only enqueued after their states passed all checks, so a replay never
// faults.
func replayTo(cfg *Config, path []choice) (*replayer, error) {
	r, err := newReplayer(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range path {
		if verr := r.applyChecked(c); verr != nil {
			return nil, fmt.Errorf("check: %s: replay diverged: %v", cfg.Name, verr)
		}
	}
	return r, nil
}

// makeWitness replays path one final time with the observability trace
// attached, recording a human-readable description of every step.
func makeWitness(cfg *Config, path []choice, verr error) *Violation {
	v := &Violation{Config: cfg.Name, Err: verr.Error()}
	r, err := newReplayer(cfg)
	if err != nil {
		v.Steps = []string{fmt.Sprintf("(witness replay failed: %v)", err)}
		return v
	}
	tr := obs.NewTrace()
	r.m.AttachProbe(&obs.Probe{Trace: tr})
	for _, c := range path {
		v.Steps = append(v.Steps, r.describe(c))
		if stepErr := r.applyChecked(c); stepErr != nil {
			break // the final step may fault; the state is discarded
		}
	}
	v.Trace = tr
	return v
}

// encoder is the reusable scratch space of the canonical encoding:
// one run of the checker encodes every state it reaches into the same
// buffer.
type encoder struct {
	buf coherent.CanonBuf
	idx []int
}

// hash digests r's canonical state for the visited set.
func (e *encoder) hash(r *replayer) [sha256.Size]byte {
	e.canon(r)
	return sha256.Sum256(e.buf.B)
}

// canon encodes everything that can influence future behavior: the
// program counters, the undelivered messages grouped into their FIFO
// channels, and the machine (caches, transactions, gates, store,
// engine state). Order within a channel is behavior (delivery
// respects it), order across channels is not (any interleaving is
// explored), so the pool is encoded channel by channel in (src, dst)
// order, each channel in send order.
func (e *encoder) canon(r *replayer) {
	b := e.buf.B[:0]
	for _, pc := range r.cursors {
		b = binary.AppendUvarint(b, uint64(pc))
	}
	e.idx = e.idx[:0]
	for i := range r.pool {
		e.idx = append(e.idx, i)
	}
	slices.SortStableFunc(e.idx, func(i, j int) int {
		a, c := r.pool[i].msg, r.pool[j].msg
		if a.Src != c.Src {
			return cmp.Compare(a.Src, c.Src)
		}
		return cmp.Compare(a.Dst, c.Dst)
	})
	b = binary.AppendUvarint(b, uint64(len(e.idx)))
	for _, i := range e.idx {
		b = r.pool[i].msg.AppendCanon(b)
	}
	e.buf.B = b
	r.m.CanonState(&e.buf)
}
