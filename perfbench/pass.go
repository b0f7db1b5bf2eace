package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dircc"
	"dircc/internal/proc"
)

// goStats reads the Go runtime counters a pass reports.
type goStats struct {
	samples []metrics.Sample
}

const (
	mAllocBytes = iota
	mAllocObjects
	mGCCycles
	mGCCPU
	mTotalCPU
)

func newGoStats() *goStats {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	}
	g := &goStats{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		g.samples[i].Name = n
	}
	return g
}

// read returns the current values, all as float64.
func (g *goStats) read() [5]float64 {
	metrics.Read(g.samples)
	var out [5]float64
	for i, s := range g.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// heapPeak samples the live heap — as the last GC marked it — every
// few milliseconds while a pass runs, and at the end of every op, and
// keeps the maximum. With one thread the ticker only fires when the
// op yields, so the end-of-op sample makes sure every op is read at
// least once.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	s    []metrics.Sample
	peak uint64
	// paused stops sampling while the host gauge runs, so the gauge's
	// own heap is not counted.
	paused bool
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

// sample reads the live heap unless the sampler is paused.
func (h *heapPeak) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.paused {
		return
	}
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// pause stops (true) or resumes (false) sampling.
func (h *heapPeak) pause(p bool) {
	h.mu.Lock()
	h.paused = p
	h.mu.Unlock()
}

// end stops the sampler and returns the peak in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return h.peak
}

// passResult is one closed-loop pass over every op of a workload.
type passResult struct {
	// wallS is host seconds spent running and verifying ops; set-up
	// is excluded.
	wallS float64
	work  float64
	opS   []float64
	// gaugeS holds the host gauge's samples (see gauge.go).
	gaugeS     []float64
	allocBytes float64
	allocs     float64
	heapPeak   float64
	stats      map[string]opStats
	// failures maps each failed op's key to its first error.
	failures map[string]string
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

func newPassResult(ops []op) *passResult {
	return &passResult{stats: make(map[string]opStats, len(ops)), failures: map[string]string{}}
}

// fail reports an op's failure; an op counts as failed once per pass.
func (r *passResult) fail(key string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", key, err)
	if _, ok := r.failures[key]; !ok {
		r.failures[key] = err.Error()
	}
}

// runPass runs every op once, closed loop, with no instrumentation
// beyond per-op host timing, runtime counters and the host gauge
// between ops. Each op starts after a forced GC, so it pays for no
// garbage an earlier op left.
func runPass(ops []op, seed int64) *passResult {
	r := newPassResult(ops)
	gs := newGoStats()
	runtime.GC()
	hp := startHeapPeak()
	var g gauge
	for _, o := range ops {
		g.between(hp)
		runtime.GC()
		var st opStats
		var elapsed time.Duration
		var err error
		before := gs.read()
		if o.chk != nil {
			start := time.Now()
			var cs checkStats
			cs, err = runCheck(*o.chk)
			elapsed = time.Since(start)
			st.Check = &cs
		} else {
			var p *prepared
			p, err = setupSim(o.exp, seed)
			if err == nil {
				before = gs.read()
				start := time.Now()
				err = runPrepared(p)
				elapsed = time.Since(start)
				ss := simStatsOf(p.m)
				st.Sim = &ss
				if err == nil {
					err = counterInvariants(p.m)
				}
			}
		}
		after := gs.read()
		hp.sample()
		r.allocBytes += after[mAllocBytes] - before[mAllocBytes]
		r.allocs += after[mAllocObjects] - before[mAllocObjects]
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
	return r
}

// warmUp runs ops in order, untimed and unchecked, until d has passed
// and at least one op has run.
func warmUp(ops []op, seed int64, d time.Duration) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		o := ops[i%len(ops)]
		if o.chk != nil {
			runCheck(*o.chk)
		} else if p, err := setupSim(o.exp, seed); err == nil {
			runPrepared(p)
		}
	}
}

// setupSim is setupExp with the experiment's own, undecorated engine.
func setupSim(exp dircc.Experiment, seed int64) (*prepared, error) {
	eng, err := dircc.NewEngine(exp.Protocol)
	if err != nil {
		return nil, err
	}
	return setupExp(exp, seed, eng)
}

// runPrepared is the run half of dircc.RunExperiment.
func runPrepared(p *prepared) error {
	if _, err := proc.Run(p.m, p.body); err != nil {
		return err
	}
	if err := p.verify(); err != nil {
		return fmt.Errorf("wrong answer: %w", err)
	}
	return nil
}

// setupOnce builds every op's engine, inputs and machine without
// running them, and returns the host seconds it took.
func setupOnce(ops []op, seed int64) (float64, error) {
	start := time.Now()
	for _, o := range ops {
		if o.chk != nil {
			if _, err := checkRootMachine(o.chk, o.chk.NewEngine()); err != nil {
				return 0, fmt.Errorf("%s: %w", o.key(), err)
			}
			continue
		}
		if _, err := setupSim(o.exp, seed); err != nil {
			return 0, fmt.Errorf("%s: %w", o.key(), err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// setupBatch is the least host time one timed batch of set-ups takes.
// Set-ups shorter than this run back to back in a batch, so the cold
// caches a forced GC leaves behind do not dominate their time.
const setupBatch = 500 * time.Microsecond

// setupTimer samples the workload's set-up time. A sample is the
// median over batches of set-ups that fill the sample length. Each
// batch starts after a forced GC, so no set-up pays for garbage left
// by an earlier batch, and reports its mean set-up time. Samples are
// taken between passes, spread over the run like the passes
// themselves.
type setupTimer struct {
	ops       []op
	seed      int64
	batch     int
	sampleLen time.Duration
}

func newSetupTimer(ops []op, seed int64, sampleLen time.Duration) (*setupTimer, error) {
	runtime.GC()
	first, err := setupOnce(ops, seed)
	if err != nil {
		return nil, err
	}
	batch := int(setupBatch.Seconds()/first) + 1
	return &setupTimer{ops: ops, seed: seed, batch: batch, sampleLen: sampleLen}, nil
}

// sample returns one set-up sample in host seconds.
func (st *setupTimer) sample() (float64, error) {
	var batches []float64
	for start := time.Now(); len(batches) < 3 || time.Since(start) < st.sampleLen; {
		runtime.GC()
		s := 0.0
		for i := 0; i < st.batch; i++ {
			d, err := setupOnce(st.ops, st.seed)
			if err != nil {
				return 0, err
			}
			s += d
		}
		batches = append(batches, s/float64(st.batch))
	}
	return median(batches), nil
}

// median returns the middle value of xs (mean of the two middle ones
// for even lengths); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
