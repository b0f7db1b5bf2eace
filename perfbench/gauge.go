package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host gauge measures how fast the host runs at the moment. On a
// shared host the neighbours' load moves every timing by tens of
// percent over minutes, and it moves most what the simulator spends
// its time on: goroutine handoffs, small allocations and map lookups,
// and memory accesses that miss the caches. The gauge is a fixed piece
// of such work that uses no dircc code, so no change to the program
// changes it. Passes sample it between ops, and a run's timings are
// scaled by gaugeRefS over the median sample of its passes: they read
// as host seconds on the reference host at its usual speed.

// gaugeRefS is the gauge's median time on the reference host in a
// quiet spell (see README.md).
const gaugeRefS = 0.0120

// gaugeEvery is the host time of ops after which a pass samples the
// gauge again; it also samples before the first op and after the
// last.
const gaugeEvery = 200 * time.Millisecond

// gaugeSink keeps the gauge's results live.
var gaugeSink uint64

type gaugeNode struct {
	key  uint64
	next *gaugeNode
}

// gaugeBufWords is the size of the buffer gaugeWork updates at random,
// in words: 32 MiB, more than the host's last-level cache.
const gaugeBufWords = 4 << 20

// gaugeBuf lives outside the Go heap, so neither go.heap_peak_mb nor
// the collector sees it.
var gaugeBuf []uint64

// gaugeWork is the fixed work the gauge times: channel handoffs
// between two goroutines, small allocations indexed by a map and
// looked up at random, and random updates of a buffer larger than the
// caches.
func gaugeWork() {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var x uint64
	for i := 0; i < 20_000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-pong

	m := make(map[uint64]*gaugeNode)
	var head *gaugeNode
	for i := 0; i < 70_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		head = &gaugeNode{key: x, next: head}
		m[x%20_000] = head
	}
	for i := 0; i < 140_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if n, ok := m[x%20_000]; ok {
			gaugeSink += n.key
		}
	}

	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		gaugeBuf[(x>>20)%gaugeBufWords] += x
	}
}

// gauge collects one pass's gauge samples.
type gauge struct {
	samples []float64
	// sinceS is the op time since the last sample.
	sinceS float64
}

// sample times gaugeWork once, after a forced GC like every op, with
// the heap-peak sampler paused. A second GC drops the gauge's heap
// before the sampler resumes.
func (g *gauge) sample(hp *heapPeak) {
	hp.pause(true)
	runtime.GC()
	start := time.Now()
	gaugeWork()
	g.samples = append(g.samples, time.Since(start).Seconds())
	runtime.GC()
	hp.pause(false)
	g.sinceS = 0
}

// between is called before each op: it samples the gauge before the
// first op and whenever gaugeEvery of op time has passed.
func (g *gauge) between(hp *heapPeak) {
	if len(g.samples) == 0 || g.sinceS >= gaugeEvery.Seconds() {
		g.sample(hp)
	}
}

// gaugeWarmups is how many times warmGauge runs the gauge untimed.
const gaugeWarmups = 5

// warmGauge maps the gauge's buffer and runs the gauge a few times
// before any sample is taken, so no sample pays for page faults or for
// growing the heap or goroutine stacks.
func warmGauge() error {
	b, err := syscall.Mmap(-1, 0, gaugeBufWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("gauge buffer: %w", err)
	}
	gaugeBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), gaugeBufWords)
	for i := range gaugeBuf {
		gaugeBuf[i] = uint64(i)
	}
	for i := 0; i < gaugeWarmups; i++ {
		gaugeWork()
	}
	return nil
}

// hostScale returns the median gauge sample over the passes and the
// factor that turns their host seconds into reference-host seconds.
func hostScale(passes []*passResult) (gaugeS, scale float64) {
	var all []float64
	for _, p := range passes {
		all = append(all, p.gaugeS...)
	}
	gaugeS = median(all)
	return gaugeS, gaugeRefS / gaugeS
}
