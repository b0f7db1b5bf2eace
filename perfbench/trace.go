package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dircc"
	"dircc/internal/cache"
	"dircc/internal/check"
	"dircc/internal/coherent"
	"dircc/internal/kprof"
	"dircc/internal/proc"
	"dircc/internal/sim"
)

// The traced run measures each layer from outside the program: it
// wraps the protocol engine (coherent.Engine) and the processors'
// proc.Env, counts kernel events through sim.Engine.SetProbe, network
// contention through Network.SetProbe, checker replays through
// check.Config.NewEngine, and reads the parallel kernel's own profile
// (kprof). Spans are aggregated in memory per layer and written when
// the run ends.

var epoch = time.Now()

// now is the host monotonic clock in ns.
func now() int64 { return int64(time.Since(epoch)) }

// Protocol handlers, in metric order.
const (
	hStartMiss = iota
	hHomeRequest
	hHomeMsg
	hCacheMsg
	hOnEvict
	numHandlers
)

var handlerMetric = [numHandlers]string{
	"protocol.start_miss_s", "protocol.home_request_s", "protocol.home_msg_s",
	"protocol.cache_msg_s", "protocol.on_evict_s",
}

// maxNest bounds handler nesting (a handler whose machine call runs
// another handler, e.g. an eviction inside a miss).
const maxNest = 16

// laneSpans accumulates handler spans for one kernel lane. Only the
// lane that owns a node runs that node's handlers, so lanes need no
// locking; the padding keeps lanes off each other's cache lines.
type laneSpans struct {
	calls  [numHandlers]uint64
	selfNs [numHandlers]int64
	depth  int
	child  [maxNest]int64
	_      [64]byte
}

// maxLanes is the most kernel lanes a traced run supports.
const maxLanes = 8

// tracer holds one traced pass's in-memory aggregates.
type tracer struct {
	lanes [maxLanes]laneSpans
	// onMachine, when set, sees every machine a decorated engine is
	// prepared on.
	onMachine func(m *coherent.Machine)
}

func (t *tracer) enter(lane int) int64 {
	l := &t.lanes[lane]
	if l.depth == maxNest {
		panic("perfbench: protocol handler nesting too deep")
	}
	l.child[l.depth] = 0
	l.depth++
	return now()
}

func (t *tracer) exit(lane, h int, start int64) {
	d := now() - start
	l := &t.lanes[lane]
	l.depth--
	l.calls[h]++
	l.selfNs[h] += d - l.child[l.depth]
	if l.depth > 0 {
		l.child[l.depth-1] += d
	}
}

// protocolTotals sums the handler spans over lanes.
func (t *tracer) protocolTotals() (calls uint64, selfNs [numHandlers]int64) {
	for i := range t.lanes {
		for h := 0; h < numHandlers; h++ {
			calls += t.lanes[i].calls[h]
			selfNs[h] += t.lanes[i].selfNs[h]
		}
	}
	return calls, selfNs
}

// tracedEngine decorates a protocol engine with per-handler spans. It
// forwards every optional interface the machine and the checker
// type-assert; wrapEngine refuses engines missing one whose absence
// changes behaviour, so the decorated engine behaves exactly as the
// bare one.
type tracedEngine struct {
	inner coherent.Engine
	t     *tracer
	// laneOf maps node to kernel lane; nil on the sequential kernel.
	laneOf []int32

	prep  coherent.Preparer
	safe  coherent.ShardSafe
	state coherent.ProtocolState
	cover coherent.CoverageEnumerator
	dump  coherent.BlockDumper
	shape coherent.ShapeChecker   // optional: absent means no shape invariant
	upd   coherent.UpdateProtocol // optional: absent means invalidation-based
}

func wrapEngine(inner coherent.Engine, t *tracer) (*tracedEngine, error) {
	e := &tracedEngine{inner: inner, t: t}
	var ok [5]bool
	e.prep, ok[0] = inner.(coherent.Preparer)
	e.safe, ok[1] = inner.(coherent.ShardSafe)
	e.state, ok[2] = inner.(coherent.ProtocolState)
	e.cover, ok[3] = inner.(coherent.CoverageEnumerator)
	e.dump, ok[4] = inner.(coherent.BlockDumper)
	for _, v := range ok {
		if !v {
			return nil, fmt.Errorf("engine %s lacks an optional interface the decorator must forward", inner.Name())
		}
	}
	e.shape, _ = inner.(coherent.ShapeChecker)
	e.upd, _ = inner.(coherent.UpdateProtocol)
	return e, nil
}

func (e *tracedEngine) lane(n coherent.NodeID) int {
	if e.laneOf == nil {
		return 0
	}
	return int(e.laneOf[n])
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	l := e.lane(txn.Node)
	s := e.t.enter(l)
	e.inner.StartMiss(m, txn)
	e.t.exit(l, hStartMiss, s)
}

func (e *tracedEngine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	l := e.lane(msg.Dst)
	s := e.t.enter(l)
	e.inner.HomeRequest(m, msg)
	e.t.exit(l, hHomeRequest, s)
}

func (e *tracedEngine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	l := e.lane(msg.Dst)
	s := e.t.enter(l)
	e.inner.HomeMsg(m, msg)
	e.t.exit(l, hHomeMsg, s)
}

func (e *tracedEngine) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	l := e.lane(msg.Dst)
	s := e.t.enter(l)
	e.inner.CacheMsg(m, msg)
	e.t.exit(l, hCacheMsg, s)
}

func (e *tracedEngine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	l := e.lane(n)
	s := e.t.enter(l)
	e.inner.OnEvict(m, n, ln)
	e.t.exit(l, hOnEvict, s)
}

func (e *tracedEngine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	return e.inner.DirectoryBits(cfg, blocksPerNode)
}

// Prepare learns the machine's lane layout, then forwards.
func (e *tracedEngine) Prepare(m *coherent.Machine) {
	if s := m.Shards(); s > 1 {
		if s > maxLanes {
			panic(fmt.Sprintf("perfbench: %d lanes, tracing supports %d", s, maxLanes))
		}
		ks := sim.NewSharded(m.Cfg.Procs, s)
		e.laneOf = make([]int32, m.Cfg.Procs)
		for n := range e.laneOf {
			e.laneOf[n] = int32(ks.LaneOf(n))
		}
	}
	if e.t.onMachine != nil {
		e.t.onMachine(m)
	}
	e.prep.Prepare(m)
}

func (e *tracedEngine) ShardSafeEngine() bool  { return e.safe.ShardSafeEngine() }
func (e *tracedEngine) CanonState(w io.Writer) { e.state.CanonState(w) }
func (e *tracedEngine) DescribeBlock(b coherent.BlockID) string {
	return e.dump.DescribeBlock(b)
}

func (e *tracedEngine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	return e.cover.CoverageRoots(m, b)
}

func (e *tracedEngine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return e.cover.CoverageEdges(m, b, n)
}

func (e *tracedEngine) CheckShape(m *coherent.Machine, b coherent.BlockID) error {
	if e.shape == nil {
		return nil
	}
	return e.shape.CheckShape(m, b)
}

func (e *tracedEngine) UpdatesCopies() bool { return e.upd != nil && e.upd.UpdatesCopies() }

// envSpans accumulates one processor's time split: inside Env calls
// (waiting on the simulator) and between them (app code). Each
// processor's goroutine owns its own.
type envSpans struct {
	calls, refs    uint64
	waitNs, selfNs int64
	last           int64
}

// tracedEnv decorates a processor's proc.Env.
type tracedEnv struct {
	inner proc.Env
	s     *envSpans
}

func (e *tracedEnv) in() int64 {
	t := now()
	e.s.selfNs += t - e.s.last
	return t
}

func (e *tracedEnv) out(t0 int64) {
	t := now()
	e.s.waitNs += t - t0
	e.s.last = t
	e.s.calls++
}

func (e *tracedEnv) ID() int         { return e.inner.ID() }
func (e *tracedEnv) NProcs() int     { return e.inner.NProcs() }
func (e *tracedEnv) Now() dircc.Time { return e.inner.Now() }
func (e *tracedEnv) Read(addr uint64) uint64 {
	t := e.in()
	v := e.inner.Read(addr)
	e.out(t)
	e.s.refs++
	return v
}

func (e *tracedEnv) Write(addr uint64, v uint64) {
	t := e.in()
	e.inner.Write(addr, v)
	e.out(t)
	e.s.refs++
}

func (e *tracedEnv) FetchAdd(addr uint64, delta uint64) uint64 {
	t := e.in()
	v := e.inner.FetchAdd(addr, delta)
	e.out(t)
	e.s.refs++
	return v
}

func (e *tracedEnv) Compute(cycles uint64) {
	t := e.in()
	e.inner.Compute(cycles)
	e.out(t)
}

func (e *tracedEnv) Barrier() {
	t := e.in()
	e.inner.Barrier()
	e.out(t)
}

func (e *tracedEnv) Lock(id int) {
	t := e.in()
	e.inner.Lock(id)
	e.out(t)
}

func (e *tracedEnv) Unlock(id int) {
	t := e.in()
	e.inner.Unlock(id)
	e.out(t)
}

// traceBody wraps an app body so each processor runs on a tracedEnv
// recording into spans[id].
func traceBody(body proc.Body, spans []envSpans) proc.Body {
	return func(env proc.Env) {
		s := &spans[env.ID()]
		s.last = now()
		body(&tracedEnv{inner: env, s: s})
		s.selfNs += now() - s.last
	}
}

// layerSums are a traced pass's raw totals, folded into metrics by
// finish.
type layerSums struct {
	ops                      int
	setupNs, verifyNs, runNs int64
	refs, envCalls           uint64
	envWaitNs, appNs         int64
	events                   uint64
	ctr                      dircc.Counters
	contention               uint64
	waves, waveEvents        uint64
	serialNs, wallNs         int64
	busyNs, capacityNs       int64
	replayNs, stallNs        int64
	states, transitions      uint64
	replays                  uint64
	engineNs                 int64
	allocObjects, gcCycles   float64
	gcCPU, totalCPU          float64
}

// runTracedPass runs every op once with every decorator attached and
// returns the pass with its per-layer metrics.
func runTracedPass(ops []op, seed int64) *passResult {
	r := newPassResult(ops)
	t := &tracer{}
	var sum layerSums
	gs := newGoStats()
	runtime.GC()
	hp := startHeapPeak()
	var g gauge
	for _, o := range ops {
		g.between(hp)
		runtime.GC()
		var st opStats
		var err error
		var elapsed time.Duration
		before := gs.read()
		if o.chk != nil {
			start := time.Now()
			var cs checkStats
			cs, err = tracedCheck(*o.chk, t, &sum)
			elapsed = time.Since(start)
			st.Check = &cs
			sum.runNs += elapsed.Nanoseconds()
		} else {
			var m *coherent.Machine
			m, elapsed, err = tracedSim(o.exp, seed, t, &sum, func() { before = gs.read() })
			if m != nil {
				ss := simStatsOf(m)
				st.Sim = &ss
			}
		}
		after := gs.read()
		hp.sample()
		r.allocBytes += after[mAllocBytes] - before[mAllocBytes]
		r.allocs += after[mAllocObjects] - before[mAllocObjects]
		sum.allocObjects += after[mAllocObjects] - before[mAllocObjects]
		sum.gcCycles += after[mGCCycles] - before[mGCCycles]
		sum.gcCPU += after[mGCCPU] - before[mGCCPU]
		sum.totalCPU += after[mTotalCPU] - before[mTotalCPU]
		sum.ops++
		if err != nil {
			r.fail(o.key(), err)
			continue
		}
		r.stats[o.key()] = st
		r.wallS += elapsed.Seconds()
		r.opS = append(r.opS, elapsed.Seconds())
		r.work += st.work()
		g.sinceS += elapsed.Seconds()
	}
	g.sample(hp)
	r.heapPeak = float64(hp.end())
	r.gaugeS = g.samples
	r.layers = sum.finish(t)
	return r
}

// tracedSim runs one experiment through the decorators and returns
// its machine once it has run. elapsed covers run and verify, like
// the untraced pass. setupDone is called between set-up and run, so
// the caller can leave set-up out of its runtime counters as the
// untraced pass does.
func tracedSim(exp dircc.Experiment, seed int64, t *tracer, sum *layerSums, setupDone func()) (*coherent.Machine, time.Duration, error) {
	t0 := now()
	inner, err := dircc.NewEngine(exp.Protocol)
	if err != nil {
		return nil, 0, err
	}
	eng, err := wrapEngine(inner, t)
	if err != nil {
		return nil, 0, err
	}
	p, err := setupExp(exp, seed, eng)
	if err != nil {
		return nil, 0, err
	}
	m := p.m
	spans := make([]envSpans, m.Cfg.Procs)
	body := traceBody(p.body, spans)
	var events, contention uint64
	if m.Eng != nil {
		m.Eng.SetProbe(func(sim.Time) { events++ })
	}
	m.Net.SetProbe(func(start, arrive, unloaded sim.Time) { contention += uint64(arrive - start - unloaded) })
	var prof *kprof.Profile
	if m.Shards() > 1 {
		prof = &kprof.Profile{}
		m.AttachKProf(prof)
	}
	t1 := now()
	sum.setupNs += t1 - t0
	setupDone()

	start := time.Now()
	_, err = proc.Run(m, body)
	t2 := now()
	if err == nil {
		if verr := p.verify(); verr != nil {
			err = fmt.Errorf("wrong answer: %w", verr)
		}
	}
	elapsed := time.Since(start)
	sum.verifyNs += now() - t2
	if err != nil {
		return m, elapsed, err
	}
	if err := counterInvariants(m); err != nil {
		return m, elapsed, err
	}
	if m.Eng != nil && events != m.Executed() {
		return m, elapsed, fmt.Errorf("event probe saw %d events, kernel executed %d", events, m.Executed())
	}

	runNs := t2 - t1
	if prof != nil {
		rep := prof.Report()
		var busy int64
		for _, l := range rep.Lanes {
			busy += l.BusyNs
		}
		serial := rep.ReplayNs + rep.RebindNs + rep.OtherNs
		// Under the parallel kernel the handler and app spans sum
		// over lanes, so the run is accounted as lane time.
		runNs = busy + serial
		sum.waves += rep.Waves
		sum.waveEvents += rep.Events
		sum.serialNs += serial
		sum.wallNs += rep.WallNs
		sum.busyNs += busy
		sum.capacityNs += int64(rep.Shards) * rep.PhaseNs
		sum.replayNs += rep.ReplayNs
		sum.stallNs += int64(rep.BarrierStall.Sum)
	}
	sum.runNs += runNs
	for i := range spans {
		sum.refs += spans[i].refs
		sum.envCalls += spans[i].calls
		sum.envWaitNs += spans[i].waitNs
		sum.appNs += spans[i].selfNs
	}
	sum.events += m.Executed()
	sum.ctr.Add(m.Ctr)
	sum.contention += contention
	return m, elapsed, nil
}

// tracedCheck runs one checker config with a counting, timing,
// decorating engine factory.
func tracedCheck(cfg check.Config, t *tracer, sum *layerSums) (checkStats, error) {
	orig := cfg.NewEngine
	var wrapErr error
	cfg.NewEngine = func() coherent.Engine {
		t0 := now()
		inner := orig()
		sum.engineNs += now() - t0
		sum.replays++
		eng, err := wrapEngine(inner, t)
		if err != nil {
			wrapErr = err
			return inner
		}
		return eng
	}
	t.onMachine = func(m *coherent.Machine) {
		m.Eng.SetProbe(func(sim.Time) { sum.events++ })
	}
	defer func() { t.onMachine = nil }()
	cs, err := runCheck(cfg)
	if wrapErr != nil {
		return cs, wrapErr
	}
	sum.states += uint64(cs.States)
	sum.transitions += uint64(cs.Transitions)
	return cs, err
}

// finish folds the pass totals into the per-layer metrics.
func (s *layerSums) finish(t *tracer) map[string]float64 {
	calls, selfNs := t.protocolTotals()
	var protoNs int64
	for _, ns := range selfNs {
		protoNs += ns
	}
	c := &s.ctr
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	refs := float64(c.Reads + c.Writes)
	out := map[string]float64{
		"runner.setup_s_per_exp":    div(sec(s.setupNs), float64(s.ops)),
		"runner.verify_s":           sec(s.verifyNs),
		"apps.refs":                 float64(s.refs),
		"apps.self_s":               sec(s.appNs),
		"proc.env_calls":            float64(s.envCalls),
		"proc.wait_s":               sec(s.envWaitNs),
		"sim.events":                float64(s.events),
		"sim.ns_per_event":          div(float64(s.runNs), float64(s.events)),
		"coherent.sim_cycles":       float64(c.Cycles),
		"coherent.directory_busy":   float64(c.DirectoryBusy),
		"coherent.invalidations":    float64(c.Invalidations),
		"coherent.replace_invs":     float64(c.ReplaceInvs),
		"cache.hit_ratio":           div(float64(c.ReadHits+c.WriteHits), refs),
		"cache.replacements":        float64(c.Replacements),
		"network.messages":          float64(c.Messages),
		"network.bytes":             float64(c.Bytes),
		"network.hops":              float64(c.HopsSum),
		"network.msgs_per_ref":      div(float64(c.Messages), refs),
		"network.contention_cycles": float64(s.contention),
		"protocol.calls":            float64(calls),
		"protocol.self_s":           sec(protoNs),
		"protocol.ns_per_call":      div(float64(protoNs), float64(calls)),
		"sharded.waves":             float64(s.waves),
		"sharded.mean_wave_events":  div(float64(s.waveEvents), float64(s.waves)),
		"sharded.serial_frac":       div(float64(s.serialNs), float64(s.wallNs)),
		"sharded.efficiency":        div(float64(s.busyNs), float64(s.capacityNs)),
		"sharded.replay_s":          sec(s.replayNs),
		"sharded.barrier_stall_s":   sec(s.stallNs),
		"check.states":              float64(s.states),
		"check.transitions":         float64(s.transitions),
		"check.replays":             float64(s.replays),
		"check.revisit_frac":        0,
		"check.engine_s":            sec(s.engineNs),
		"check.self_s":              0,
		"check.ns_per_transition":   div(float64(s.runNs), float64(s.transitions)),
		"go.gc_cpu_frac":            div(s.gcCPU, s.totalCPU),
		"go.gc_cycles":              s.gcCycles,
		"go.allocs_per_event":       div(s.allocObjects, float64(s.events)),
		"trace.run_s":               sec(s.runNs),
	}
	for h, ns := range selfNs {
		out[handlerMetric[h]] = sec(ns)
	}
	// The run splits into protocol handlers, app code and the rest:
	// the kernel, proc handoff, machine dispatch, caches and network
	// on a simulation; replay, canonicalisation and hashing inside
	// check.Run on the checker, which the outside cannot split from
	// the machine code it drives.
	rest := sec(s.runNs - protoNs - s.appNs)
	if s.transitions > 0 {
		out["check.revisit_frac"] = 1 - div(float64(s.states), float64(s.transitions))
		out["check.self_s"] = rest - sec(s.engineNs)
		out["coherent.self_s"] = 0
	} else {
		out["coherent.self_s"] = rest
	}
	out["coherent.ns_per_event"] = div(out["coherent.self_s"]*1e9, float64(s.events))
	return out
}

// perLayer lists every per-layer metric with its unit. Layers a
// workload does not exercise report 0 (README.md has the map).
var perLayer = []struct{ name, unit string }{
	{"runner.setup_s_per_exp", "s"},
	{"runner.verify_s", "s"},
	{"apps.refs", "count"},
	{"apps.self_s", "s"},
	{"proc.env_calls", "count"},
	{"proc.wait_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"coherent.self_s", "s"},
	{"coherent.ns_per_event", "ns"},
	{"coherent.sim_cycles", "cycles"},
	{"coherent.directory_busy", "count"},
	{"coherent.invalidations", "count"},
	{"coherent.replace_invs", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.replacements", "count"},
	{"network.messages", "count"},
	{"network.bytes", "bytes"},
	{"network.hops", "count"},
	{"network.msgs_per_ref", "ratio"},
	{"network.contention_cycles", "cycles"},
	{"protocol.calls", "count"},
	{"protocol.self_s", "s"},
	{"protocol.ns_per_call", "ns"},
	{"protocol.start_miss_s", "s"},
	{"protocol.home_request_s", "s"},
	{"protocol.home_msg_s", "s"},
	{"protocol.cache_msg_s", "s"},
	{"protocol.on_evict_s", "s"},
	{"sharded.waves", "count"},
	{"sharded.mean_wave_events", "count"},
	{"sharded.serial_frac", "ratio"},
	{"sharded.efficiency", "ratio"},
	{"sharded.replay_s", "s"},
	{"sharded.barrier_stall_s", "s"},
	{"check.states", "count"},
	{"check.transitions", "count"},
	{"check.replays", "count"},
	{"check.revisit_frac", "ratio"},
	{"check.engine_s", "s"},
	{"check.self_s", "s"},
	{"check.ns_per_transition", "ns"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.allocs_per_event", "ratio"},
	{"go.heap_peak_mb", "MB"},
	{"host.gauge_s", "s"},
	{"trace.run_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()
