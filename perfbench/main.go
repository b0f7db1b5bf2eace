// Command perfbench is dircc's end-to-end benchmark. It runs one
// workload closed loop — each experiment or checker config completes
// before the next starts — for a fixed host time, checks every output,
// and prints the workload's metrics, the last line as one JSON object.
//
//	perfbench --workload sweep-default --seed 0 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units, in print
// order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
}

// minSetupSamples is the fewest set-up samples setup_s is the median
// of.
const minSetupSamples = 5

// warmUpFor is how long ops run untimed before the first pass, so the
// first pass does not pay for growing the heap and faulting in its
// pages.
const warmUpFor = 2 * time.Second

// benchProcs is the GOMAXPROCS every run uses. With one thread running
// Go code, the program and the host gauge share the same CPU's
// conditions, and no timing waits for a second, differently loaded
// CPU of a shared host. mp3d-p1024's two kernel lanes then take turns.
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	workload := flag.String("workload", "", "workload to run: sweep-default, mp3d-p1024 or check-grid")
	seed := flag.Int64("seed", 0, "input seed; 0 keeps the apps' built-in seeds and checks the pinned statistics")
	seconds := flag.Int("seconds", 35, "host seconds to measure for, after a 2 s warm-up")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	pin := flag.Bool("pin", false, "run every workload once at seed 0 and print pinned.json")
	flag.Parse()

	pinned, err := loadPinned()
	if err != nil {
		fatal(err)
	}
	if *pin {
		if err := writePinned(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ops, err := workloadOps(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	host := describeHost()
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": *workload, "seed": *seed, "trace": *traceFlag})
	fmt.Println(string(hostLine))

	if err := warmGauge(); err != nil {
		fatal(err)
	}
	setup, err := newSetupTimer(ops, *seed, 300*time.Millisecond)
	if err != nil {
		fatal(err)
	}
	warmUp(ops, *seed, warmUpFor)
	// A pass starts only if it can end before the deadline, judged by
	// the longest pass so far, so a run measures for about --seconds.
	var plain, traced []*passResult
	var setupS []float64
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var longest time.Duration
	for len(plain) == 0 || (*traceFlag == 1 && len(traced) == 0) || time.Now().Add(longest).Before(deadline) {
		passStart := time.Now()
		if *traceFlag == 1 && len(traced) < len(plain) {
			traced = append(traced, runTracedPass(ops, *seed))
		} else {
			s, err := setup.sample()
			if err != nil {
				fatal(err)
			}
			plain = append(plain, runPass(ops, *seed))
			setupS = append(setupS, s)
		}
		longest = max(longest, time.Since(passStart))
	}
	for len(setupS) < minSetupSamples {
		s, err := setup.sample()
		if err != nil {
			fatal(err)
		}
		setupS = append(setupS, s)
	}

	// Every pass runs the same inputs, so every later pass, traced or
	// not, must see exactly the first pass's statistics.
	passes := append(append([]*passResult(nil), plain...), traced...)
	res := result{Metrics: map[string]metric{}}
	for i, p := range passes {
		if i > 0 {
			checkSame(plain[0], p)
		}
		checkPinned(pinned, *workload, *seed, p)
		res.Attempted += len(ops)
		res.Failed += len(p.failures)
	}
	res.Correct = res.Failed == 0

	if *traceFlag == 0 {
		vals := endToEndValues(plain, median(setupS))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Printf("%d passes of %d ops; timings are reference-host seconds, medians over passes; op_p50_s/op_p90_s over %d op samples\n",
			len(plain), len(ops), len(plain)*len(ops))
		gaugeS, scale := hostScale(plain)
		fmt.Printf("host gauge %.5f s, scale %.4f; pass host wall_s:", gaugeS, scale)
		for _, p := range plain {
			fmt.Printf(" %.4f", p.wallS)
		}
		fmt.Println()
	} else {
		for name, v := range layerValues(plain, traced) {
			res.Metrics[name] = metric{v, perLayerUnit[name]}
		}
		fmt.Printf("%d untraced and %d traced passes of %d ops\n", len(plain), len(traced), len(ops))
	}
	fmt.Printf("failed_frac %g (%d of %d ops)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEndValues takes each metric's median over the passes, except
// op_p50_s and op_p90_s, which pool the operations of every pass.
// Timings are scaled by the passes' host gauge.
func endToEndValues(passes []*passResult, setupS float64) map[string]float64 {
	_, scale := hostScale(passes)
	var opS []float64
	for _, p := range passes {
		opS = append(opS, p.opS...)
	}
	per := map[string][]float64{}
	for _, p := range passes {
		wall := p.wallS * scale
		per["wall_s"] = append(per["wall_s"], wall)
		if wall > 0 {
			per["work_per_s"] = append(per["work_per_s"], p.work/wall)
		}
		per["alloc_mb"] = append(per["alloc_mb"], p.allocBytes/1e6)
		per["allocs"] = append(per["allocs"], p.allocs)
	}
	out := map[string]float64{
		"setup_s":  setupS * scale,
		"op_p50_s": quantile(opS, 0.5) * scale,
		"op_p90_s": quantile(opS, 0.9) * scale,
	}
	for k, v := range per {
		out[k] = median(v)
	}
	return out
}

// layerValues takes each per-layer metric's median over the traced
// passes and adds the untraced passes' heap peak, the host gauge and
// the tracing overhead. The traced
// and untraced pass times are scaled by the gauge as wall_s is.
func layerValues(plain, traced []*passResult) map[string]float64 {
	gaugeS, scale := hostScale(append(append([]*passResult(nil), plain...), traced...))
	per := map[string][]float64{}
	var tw, pw, heap []float64
	for _, p := range traced {
		for k, v := range p.layers {
			per[k] = append(per[k], v)
		}
		tw = append(tw, p.wallS*scale)
	}
	for _, p := range plain {
		pw = append(pw, p.wallS*scale)
		heap = append(heap, p.heapPeak/1e6)
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	out["go.heap_peak_mb"] = median(heap)
	out["host.gauge_s"] = gaugeS
	out["trace.wall_s"] = median(tw)
	out["trace.untraced_wall_s"] = median(pw)
	out["trace.overhead_frac"] = 0
	if u := median(pw); u > 0 {
		out["trace.overhead_frac"] = median(tw)/u - 1
	}
	return out
}
