// Package proc provides the execution-driven processor front end: each
// simulated CPU runs real Go application code against a simulated
// shared-memory API, cooperatively scheduled by the event kernel.
//
// This is the Proteus substitution described in DESIGN.md §6. One
// goroutine per processor executes the application; every call into
// the Env blocks the goroutine and hands control back to the single
// simulator goroutine, which advances the clock and resumes the
// processor when the reference completes. Exactly one goroutine is
// runnable at any instant, so simulations remain deterministic.
package proc

import (
	"fmt"
	"runtime"

	"dircc/internal/coherent"
	"dircc/internal/sim"
)

// Env is the shared-memory programming interface visible to simulated
// application code. All addresses are byte addresses into the machine's
// shared address space (see Machine.Alloc); values are 64-bit words.
type Env interface {
	// ID returns this processor's index in [0, NProcs).
	ID() int
	// NProcs returns the number of processors in the run.
	NProcs() int
	// Read performs a shared-memory load.
	Read(addr uint64) uint64
	// Write performs a shared-memory store.
	Write(addr uint64, v uint64)
	// FetchAdd atomically adds delta to the word at addr and returns
	// the previous value (serialized at the block's home).
	FetchAdd(addr uint64, delta uint64) uint64
	// Compute charges cycles of local computation.
	Compute(cycles uint64)
	// Barrier blocks until every processor has arrived.
	Barrier()
	// Lock acquires the global lock with the given id (FIFO queue).
	Lock(id int)
	// Unlock releases it.
	Unlock(id int)
	// Now returns the current simulated time.
	Now() sim.Time
}

// Body is an application kernel: the code one processor executes.
type Body func(Env)

type reqKind uint8

const (
	reqRead reqKind = iota
	reqWrite
	reqFetchAdd
	reqCompute
	reqBarrier
	reqLock
	reqUnlock
	reqDone
)

type request struct {
	kind   reqKind
	addr   uint64
	value  uint64
	cycles uint64
	lockID int
}

// Group runs one Body per processor on a Machine.
type Group struct {
	m     *coherent.Machine
	procs []*proc

	barrierWaiting int
	barrierResume  []*proc
	locks          map[int]*lockState
	// memLocks holds the shared-memory words of ticket locks when the
	// machine is configured with MemLocks (addresses allocated lazily).
	memLocks map[int][2]uint64

	// wb holds per-processor write buffers when the machine is
	// configured with WriteBuffer > 0 (TSO-style relaxation).
	wb []*wstate

	running  int
	finished int
}

// pendingWrite is one entry of a processor's write buffer.
type pendingWrite struct {
	addr, value uint64
}

// wstate is a processor's write buffer: q[0] is the write in flight
// when busy; wait/cont park the processor until a buffer condition
// holds (space available, full drain, or a block conflict clearing).
type wstate struct {
	q    []pendingWrite
	busy bool
	wait func() bool
	cont func()
}

type proc struct {
	id     int
	req    chan request
	resume chan uint64
	g      *Group
	done   bool
}

type lockState struct {
	held  bool
	queue []*proc
}

// Run launches body on every processor of m, drives the simulation to
// completion, and returns the total simulated cycles. The machine must
// be fresh (its event queue is consumed). It fails if the simulation
// deadlocks (a processor never finished but no events remain) or the
// coherence monitor found violations.
func Run(m *coherent.Machine, body Body) (sim.Time, error) {
	g := &Group{m: m, locks: make(map[int]*lockState), memLocks: make(map[int][2]uint64)}
	n := m.Cfg.Procs
	if m.Cfg.WriteBuffer > 0 {
		g.wb = make([]*wstate, n)
		for i := range g.wb {
			g.wb[i] = &wstate{}
		}
	}
	for i := 0; i < n; i++ {
		p := &proc{id: i, req: make(chan request), resume: make(chan uint64), g: g}
		g.procs = append(g.procs, p)
		go func(p *proc) {
			p.wait() // wait for the simulator to start us
			body(&env{p: p})
			p.req <- request{kind: reqDone}
		}(p)
	}
	g.running = n
	for _, p := range g.procs {
		p := p
		m.ScheduleAt(coherent.NodeID(p.id), 0, func() { g.advance(p, 0) })
	}
	if err := m.Quiesce(); err != nil {
		g.abandon()
		return 0, err
	}
	if g.finished != n {
		g.abandon()
		return 0, fmt.Errorf("proc: deadlock — %d of %d processors never finished (barrier/lock imbalance?)",
			n-g.finished, n)
	}
	return m.Now(), nil
}

// abandon closes the resume channel of every unfinished processor; a
// parked goroutine then exits from inside its Env call instead of
// returning into the body. Only used on error paths.
func (g *Group) abandon() {
	for _, p := range g.procs {
		if !p.done {
			close(p.resume)
		}
	}
}

// wait parks the processor's goroutine until the simulator resumes it
// and returns the value it was resumed with. A closed resume channel
// means the run was abandoned, and the goroutine exits.
func (p *proc) wait() uint64 {
	v, ok := <-p.resume
	if !ok {
		runtime.Goexit()
	}
	return v
}

// call hands request r to the simulator and parks until it completes.
func (p *proc) call(r request) uint64 {
	p.req <- r
	return p.wait()
}

// advance resumes processor p with value v, waits for its next request,
// and dispatches it. It runs on the simulator goroutine.
func (g *Group) advance(p *proc, v uint64) {
	p.resume <- v
	r := <-p.req
	g.dispatch(p, r)
}

// wbuf returns p's write buffer, or nil when running strongly ordered.
func (g *Group) wbuf(p *proc) *wstate {
	if g.wb == nil {
		return nil
	}
	return g.wb[p.id]
}

// issueWrites keeps the head of p's write buffer in flight and fires
// the parked continuation once its condition holds.
func (g *Group) issueWrites(p *proc) {
	wb := g.wb[p.id]
	if !wb.busy && len(wb.q) > 0 {
		wb.busy = true
		head := wb.q[0]
		g.m.Access(coherent.NodeID(p.id), head.addr, true, head.value, func(uint64) {
			wb.busy = false
			wb.q = wb.q[1:]
			g.issueWrites(p)
		})
	}
	if wb.wait != nil && wb.wait() {
		cont := wb.cont
		wb.wait, wb.cont = nil, nil
		cont()
	}
}

// parkUntil suspends p's request handling until cond holds (checked on
// every write-buffer completion).
func (g *Group) parkUntil(p *proc, cond func() bool, then func()) {
	wb := g.wb[p.id]
	if wb.wait != nil {
		panic("proc: processor parked twice")
	}
	if cond() {
		then()
		return
	}
	wb.wait = cond
	wb.cont = then
}

// drained reports whether p's write buffer is empty and idle.
func (g *Group) drained(p *proc) func() bool {
	wb := g.wb[p.id]
	return func() bool { return len(wb.q) == 0 && !wb.busy }
}

// dispatch translates one request into simulator actions. Under the
// write-buffer relaxation, stores retire into the buffer, loads forward
// from it, and synchronization operations (locks, barriers, atomics,
// exit) act as fences that drain it first.
func (g *Group) dispatch(p *proc, r request) {
	m := g.m
	if wb := g.wbuf(p); wb != nil {
		switch r.kind {
		case reqWrite:
			wb.q = append(wb.q, pendingWrite{r.addr, r.value})
			if len(wb.q) > m.Cfg.WriteBuffer {
				// Buffer full: the processor stalls until a slot frees.
				g.parkUntil(p, func() bool { return len(wb.q) <= m.Cfg.WriteBuffer },
					func() { g.advance(p, 0) })
			} else {
				m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.CacheLatency, func() { g.advance(p, 0) })
			}
			g.issueWrites(p)
			return
		case reqRead:
			// Store-to-load forwarding from the youngest matching entry.
			for i := len(wb.q) - 1; i >= 0; i-- {
				if wb.q[i].addr == r.addr {
					v := wb.q[i].value
					m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.CacheLatency, func() { g.advance(p, v) })
					return
				}
			}
			// A buffered write to another word of the same block would
			// collide with the read transaction; wait it out.
			b := m.BlockOf(r.addr)
			clear := func() bool {
				for _, w := range wb.q {
					if m.BlockOf(w.addr) == b {
						return false
					}
				}
				return true
			}
			g.parkUntil(p, clear, func() {
				m.Access(coherent.NodeID(p.id), r.addr, false, 0, func(val uint64) { g.advance(p, val) })
			})
			return
		case reqFetchAdd, reqBarrier, reqLock, reqUnlock, reqDone:
			// Fences: drain before proceeding.
			if !g.drained(p)() {
				g.parkUntil(p, g.drained(p), func() { g.dispatchOrdered(p, r) })
				return
			}
		}
	}
	g.dispatchOrdered(p, r)
}

// dispatchOrdered handles a request under the strong (in-order) model.
func (g *Group) dispatchOrdered(p *proc, r request) {
	m := g.m
	switch r.kind {
	case reqRead:
		m.Access(coherent.NodeID(p.id), r.addr, false, 0, func(val uint64) { g.advance(p, val) })
	case reqWrite:
		m.Access(coherent.NodeID(p.id), r.addr, true, r.value, func(uint64) { g.advance(p, 0) })
	case reqFetchAdd:
		delta := r.value
		m.AccessRMW(coherent.NodeID(p.id), r.addr, func(old uint64) uint64 { return old + delta },
			func(old uint64) { g.advance(p, old) })
	case reqCompute:
		m.CtrAt(coherent.NodeID(p.id)).ComputeCycles += r.cycles
		m.ScheduleAt(coherent.NodeID(p.id), sim.Time(r.cycles), func() { g.advance(p, 0) })
	case reqBarrier:
		// Barrier bookkeeping is Group-global state shared by every
		// processor, so under the sharded kernel it must run in the
		// replay step; GlobalOpAt defers it there (and is a plain call
		// sequentially). The same applies to locks and exit below.
		m.GlobalOpAt(coherent.NodeID(p.id), func() {
			g.barrierWaiting++
			g.barrierResume = append(g.barrierResume, p)
			if g.barrierWaiting == g.running {
				m.Ctr.BarrierEpochs++
				waiters := g.barrierResume
				g.barrierWaiting = 0
				g.barrierResume = nil
				m.ScheduleGlobal(m.Cfg.BarrierOverhead, func() {
					for _, w := range waiters {
						w := w
						m.ScheduleAt(coherent.NodeID(w.id), 0, func() { g.advance(w, 0) })
					}
				})
			}
		})
	case reqLock:
		if m.Cfg.MemLocks {
			g.memLockAcquire(p, r.lockID)
			return
		}
		m.GlobalOpAt(coherent.NodeID(p.id), func() {
			ls := g.locks[r.lockID]
			if ls == nil {
				ls = &lockState{}
				g.locks[r.lockID] = ls
			}
			if !ls.held {
				ls.held = true
				m.Ctr.LockAcquires++
				m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.LockOverhead, func() { g.advance(p, 0) })
			} else {
				ls.queue = append(ls.queue, p)
			}
		})
	case reqUnlock:
		if m.Cfg.MemLocks {
			g.memLockRelease(p, r.lockID)
			return
		}
		m.GlobalOpAt(coherent.NodeID(p.id), func() {
			ls := g.locks[r.lockID]
			if ls == nil || !ls.held {
				panic(fmt.Sprintf("proc: processor %d unlocked lock %d which is not held", p.id, r.lockID))
			}
			if len(ls.queue) > 0 {
				next := ls.queue[0]
				ls.queue = ls.queue[1:]
				m.Ctr.LockAcquires++
				m.ScheduleAt(coherent.NodeID(next.id), m.Cfg.LockOverhead, func() { g.advance(next, 0) })
			} else {
				ls.held = false
			}
			// Releasing costs one cycle locally; the releaser continues.
			m.ScheduleAt(coherent.NodeID(p.id), 1, func() { g.advance(p, 0) })
		})
	case reqDone:
		p.done = true
		m.GlobalOpAt(coherent.NodeID(p.id), func() {
			g.finished++
			g.running--
			// A barrier can now be satisfied by the remaining processors.
			// Finishing while others wait at a barrier is an application
			// bug; detect it rather than hang.
			if g.barrierWaiting > 0 && g.barrierWaiting == g.running {
				panic(fmt.Sprintf("proc: processor %d exited while %d peers wait at a barrier", p.id, g.barrierWaiting))
			}
		})
	}
}

// lockWords lazily allocates the two shared words of lock id: the
// ticket counter and the now-serving counter.
func (g *Group) lockWords(id int) [2]uint64 {
	if w, ok := g.memLocks[id]; ok {
		return w
	}
	w := [2]uint64{g.m.Alloc(8), g.m.Alloc(8)}
	g.memLocks[id] = w
	return w
}

// memLockAcquire implements a ticket lock through the coherence
// protocol: an atomic fetch-add takes a ticket, then the processor
// spins reading the now-serving word — real invalidation/update traffic
// that the engine-level lock model abstracts away.
func (g *Group) memLockAcquire(p *proc, id int) {
	w := g.lockWords(id)
	m := g.m
	m.AccessRMW(coherent.NodeID(p.id), w[0], func(old uint64) uint64 { return old + 1 },
		func(ticket uint64) {
			var spin func()
			spin = func() {
				m.Access(coherent.NodeID(p.id), w[1], false, 0, func(serving uint64) {
					if serving == ticket {
						m.CtrAt(coherent.NodeID(p.id)).LockAcquires++
						g.advance(p, 0)
						return
					}
					// Back off before re-reading (the copy was
					// invalidated by the releaser, so the re-read is a
					// real protocol transaction).
					m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.LockOverhead, spin)
				})
			}
			spin()
		})
}

// memLockRelease bumps the now-serving word.
func (g *Group) memLockRelease(p *proc, id int) {
	w := g.lockWords(id)
	m := g.m
	m.AccessRMW(coherent.NodeID(p.id), w[1], func(old uint64) uint64 { return old + 1 },
		func(uint64) { g.advance(p, 0) })
}

// env adapts a proc to the Env interface.
type env struct {
	p *proc
}

func (e *env) ID() int     { return e.p.id }
func (e *env) NProcs() int { return e.p.g.m.Cfg.Procs }

func (e *env) Read(addr uint64) uint64 {
	return e.p.call(request{kind: reqRead, addr: addr})
}

func (e *env) Write(addr uint64, v uint64) {
	e.p.call(request{kind: reqWrite, addr: addr, value: v})
}

func (e *env) FetchAdd(addr uint64, delta uint64) uint64 {
	return e.p.call(request{kind: reqFetchAdd, addr: addr, value: delta})
}

func (e *env) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	e.p.call(request{kind: reqCompute, cycles: cycles})
}

func (e *env) Barrier() { e.p.call(request{kind: reqBarrier}) }

func (e *env) Lock(id int) { e.p.call(request{kind: reqLock, lockID: id}) }

func (e *env) Unlock(id int) { e.p.call(request{kind: reqUnlock, lockID: id}) }

func (e *env) Now() sim.Time { return e.p.g.m.Now() }
