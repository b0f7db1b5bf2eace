// Command sweep runs a grid of experiments and emits one CSV row per
// run, for spreadsheet analysis or plotting.
//
// The grid runs on a worker pool (-j). Each experiment owns its
// simulation engine, so results are identical to a sequential run, and
// rows are emitted in grid order regardless of which experiment
// finishes first. -shards additionally parallelizes INSIDE each
// eligible experiment with the deterministic time-windowed kernel
// (results stay byte-identical at every shard count); -j defaults to
// GOMAXPROCS/shards so the two levels multiply into roughly the
// machine's core count instead of oversubscribing it.
//
// When stderr is a terminal (or -progress is given), a live
// completed/total line with per-experiment wall times is printed to
// stderr; stdout carries only the CSV either way. With -http the same
// progress is served live over HTTP: an HTML dashboard at /, Prometheus
// metrics at /metrics, and JSON at /progress.
//
// Usage:
//
//	sweep                                        # default grid
//	sweep -apps floyd,fft -schemes fm,T4 -procs 8,32 -full
//	sweep -topologies hypercube,torus,bus -j 8
//	sweep -procs 64,256 -shards 8 -j 1           # big machines: parallelize inside the run
//	sweep -trace-dir traces -timeseries-dir ts   # per-experiment exports
//	sweep -attrib attrib.csv -attrib-json attrib.json
//	sweep -http :8080                            # live telemetry
//	sweep -shards 4 -kprof kprof.csv -kprof-json kprof.json  # kernel profile
//	sweep -shards 8 -explain-shards              # which runs parallelize, and why not
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"dircc"
	"dircc/internal/attrib"
	"dircc/internal/kprof"
)

func main() {
	apps := flag.String("apps", "mp3d,lu,floyd,fft", "comma-separated workloads")
	schemes := flag.String("schemes", strings.Join(dircc.PaperSchemes(), ","), "comma-separated schemes")
	procsFlag := flag.String("procs", "8,16,32", "comma-separated machine sizes")
	topologies := flag.String("topologies", "hypercube", "comma-separated interconnects")
	full := flag.Bool("full", false, "paper-scale workload parameters")
	check := flag.Bool("check", false, "enable the coherence monitor")
	jobs := flag.Int("j", 0, "experiments to run in parallel (0 = GOMAXPROCS/shards, min 1)")
	shards := flag.Int("shards", 1, "worker shards inside each experiment (deterministic; >1 uses the parallel kernel where eligible)")
	progress := flag.Bool("progress", false, "force live progress on stderr even when it is not a terminal")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace-event JSON per experiment into this directory")
	tsDir := flag.String("timeseries-dir", "", "write one time-series CSV per experiment into this directory")
	sampleEvery := flag.Uint64("sample-every", 10000, "time-series sampling interval in simulated cycles")
	watchdog := flag.Uint64("watchdog", 0, "per-experiment stall watchdog threshold in cycles (0 = off)")
	watchdogJSON := flag.Bool("watchdog-json", false, "emit watchdog reports as machine-readable JSON lines")
	attribOut := flag.String("attrib", "", "write per-experiment latency-attribution CSV to this file")
	attribJSONOut := flag.String("attrib-json", "", "write per-experiment latency-attribution JSON to this file")
	httpAddr := flag.String("http", "", "serve live sweep telemetry on this address (e.g. :8080)")
	kprofOut := flag.String("kprof", "", "profile the parallel kernel and write per-experiment speedup-attribution CSV to this file")
	kprofJSONOut := flag.String("kprof-json", "", "profile the parallel kernel and write per-experiment speedup-attribution JSON to this file")
	explainShards := flag.Bool("explain-shards", false, "print each grid point's shard plan (effective shards and fallback reason) and exit without running")
	flag.Parse()

	if *shards < 1 {
		usageError("-shards must be at least 1 (got %d)", *shards)
	}
	if *jobs < 0 {
		usageError("-j must be 0 (GOMAXPROCS/shards) or positive (got %d)", *jobs)
	}
	if *sampleEvery < 1 {
		usageError("-sample-every must be at least 1 (got %d)", *sampleEvery)
	}
	// Two multiplicative levels of parallelism: -j experiments, each up
	// to -shards OS threads. Default -j so j*shards ~ GOMAXPROCS; an
	// explicit -j wins, with a warning when the product oversubscribes
	// the machine (everything still completes, just slower per run).
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0) / *shards
		if *jobs < 1 {
			*jobs = 1
		}
	}
	if *jobs**shards > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "sweep: warning: -j %d x -shards %d = %d workers oversubscribes %d CPUs\n",
			*jobs, *shards, *jobs**shards, runtime.GOMAXPROCS(0))
	}

	var sizes []int
	for _, s := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "sweep: bad -procs entry %q\n", s)
			os.Exit(1)
		}
		sizes = append(sizes, v)
	}

	// The normalized column divides by the full-map scheme's cycles at
	// the same (app, topology, procs) point. Running fm first keeps the
	// baseline within the user's requested grid; if fm was excluded via
	// -schemes there is no baseline, so the column is an explicit NaN
	// rather than a silent division by zero.
	schemeList := split(*schemes)
	hasFM := false
	for _, s := range schemeList {
		if s == "fm" {
			hasFM = true
		}
	}
	if hasFM {
		schemeList = append([]string{"fm"}, without(schemeList, "fm")...)
	} else {
		fmt.Fprintln(os.Stderr, "sweep: warning: \"fm\" not in -schemes; normalized column will be NaN (no baseline)")
	}

	wantAttrib := *attribOut != "" || *attribJSONOut != ""
	needObs := *traceDir != "" || *tsDir != "" || *watchdog > 0 || wantAttrib || *httpAddr != ""
	for _, dir := range []string{*traceDir, *tsDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}

	// Build the grid in output order; the pool may finish experiments
	// in any order, but RunExperiments returns results in input order.
	var exps []dircc.Experiment
	for _, app := range split(*apps) {
		for _, topo := range split(*topologies) {
			for _, procs := range sizes {
				for _, scheme := range schemeList {
					exps = append(exps, dircc.Experiment{
						App: app, Protocol: scheme, Procs: procs,
						Full: *full, Check: *check, Topology: topo,
						Shards: *shards,
					})
				}
			}
		}
	}

	// Kernel profiling: each experiment owns a profile (experiments run
	// concurrently). Inert on runs that fall back to the sequential
	// kernel. Profiling is also implied by -http so the dashboard can
	// show live lane activity without a separate opt-in.
	wantKProf := *kprofOut != "" || *kprofJSONOut != "" || *httpAddr != ""
	if wantKProf && *shards > 1 {
		for i := range exps {
			exps[i].KProf = &kprof.Profile{}
		}
	}

	if *explainShards {
		fallbacks := 0
		fmt.Println("app,scheme,procs,topology,requested,effective,reason,detail")
		for _, exp := range exps {
			plan, err := dircc.ExplainShards(exp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			if plan.Fallback() {
				fallbacks++
			}
			fmt.Printf("%s,%s,%d,%s,%d,%d,%s,%q\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"),
				plan.Requested, plan.Shards, plan.ReasonToken, plan.Reason.Describe())
		}
		fmt.Fprintf(os.Stderr, "sweep: %d of %d grid points would fall back to the sequential kernel\n",
			fallbacks, len(exps))
		return
	}

	// Live telemetry server. Each experiment gets its own ObsConfig so
	// the monitor can hand it a private gauge.
	var monitor *dircc.SweepMonitor
	if *httpAddr != "" {
		workers := *jobs
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		if workers > len(exps) {
			workers = len(exps)
		}
		monitor = dircc.NewSweepMonitor(exps, workers)
		monitor.Serve(*httpAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "sweep: telemetry server:", err)
		})
		fmt.Fprintf(os.Stderr, "sweep: live telemetry on http://localhost%s/ (metrics at /metrics)\n", *httpAddr)
		if *shards > 1 {
			for i := range exps {
				monitor.AttachKProf(i, exps[i].KProf)
			}
		}
	}
	if needObs {
		for i := range exps {
			oc := &dircc.ObsConfig{
				Trace:        *traceDir != "",
				StallCycles:  *watchdog,
				WatchdogJSON: *watchdogJSON,
				Attrib:       wantAttrib,
			}
			if *tsDir != "" {
				oc.SampleEvery = *sampleEvery
			}
			if monitor != nil {
				oc.Gauge = monitor.Gauge(i)
			}
			exps[i].Obs = oc
		}
	}

	// Live progress goes to stderr only when someone is watching: a
	// redirected stderr (CI logs, cron) stays clean unless -progress
	// forces it.
	var onDone func(i int, r dircc.ResultOrErr)
	if *progress || stderrIsTerminal() {
		completed := 0
		onDone = func(i int, r dircc.ResultOrErr) {
			completed++
			exp := exps[i]
			status := "ok"
			if r.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s/%s/%d/%s %s in %.2fs\n",
				completed, len(exps), exp.App, exp.Protocol, exp.Procs,
				orDefault(exp.Topology, "hypercube"), status, r.Elapsed.Seconds())
		}
	}
	var onStart func(i int)
	if monitor != nil {
		onStart = monitor.Start
		userDone := onDone
		onDone = func(i int, r dircc.ResultOrErr) {
			monitor.Done(i, r)
			if userDone != nil {
				userDone(i, r)
			}
		}
	}

	results := dircc.RunExperimentsLive(context.Background(), exps, *jobs, onStart, onDone)

	fmt.Println(dircc.SweepCSVHeader())
	failed := false
	fallbacks := 0
	shardedRuns := 0    // experiments that actually ran on the parallel kernel
	var baseline uint64 // fm cycles of the current (app, topology, procs) group
	for i, res := range results {
		exp := exps[i]
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%d/%s: %v\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"), res.Err)
			failed = true
			if exp.Protocol == "fm" {
				baseline = 0
			}
			continue
		}
		r := res.Result
		if r.ShardPlan.Shards > 1 {
			shardedRuns++
		}
		if r.ShardPlan.Fallback() {
			fallbacks++
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%d/%s: -shards %d fell back to the sequential kernel: %s (%s)\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"),
				r.ShardPlan.Requested, r.ShardPlan.ReasonToken, r.ShardPlan.Reason.Describe())
		}
		if r.Probe != nil && r.Probe.Watchdog != nil && r.Probe.Watchdog.Stalled() {
			// A stalled run still quiesced (livelock episodes can
			// resolve), but CI must notice: the watchdog fired, so the
			// sweep exits nonzero.
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%d/%s: watchdog reported a stall\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"))
			failed = true
		}
		if exp.Protocol == "fm" {
			baseline = r.Cycles
		}
		norm := math.NaN()
		if hasFM && baseline != 0 {
			norm = float64(r.Cycles) / float64(baseline)
		}
		fmt.Println(r.SweepCSVRow(norm))
		if err := dircc.WriteExports(exp, r, *traceDir, *tsDir); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
		if err := dircc.WriteKProfTrace(exp, *traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
	}
	if *shards > 1 && fallbacks > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d experiments fell back to the sequential kernel (run -explain-shards for the full table)\n",
			fallbacks, len(results))
	}
	if note := eventObsNote(*traceDir != "", wantAttrib, shardedRuns); note != "" {
		fmt.Fprintln(os.Stderr, note)
	}
	if wantAttrib {
		if err := writeAttrib(exps, results, *attribOut, *attribJSONOut); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
	}
	if *kprofOut != "" || *kprofJSONOut != "" {
		if err := writeKProf(exps, results, *kprofOut, *kprofJSONOut); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// eventObsNote returns the one-line summary note confirming that
// event-stream observability (trace / attribution) was captured on the
// parallel kernel. The stderr contract: trace and attrib runs never
// produce a per-run fallback warning (they are shard-eligible since
// the lane-buffer emission merge); instead this single note appears
// after the results when at least one instrumented experiment actually
// ran sharded. Empty — print nothing — otherwise.
func eventObsNote(wantTrace, wantAttrib bool, shardedRuns int) string {
	if (!wantTrace && !wantAttrib) || shardedRuns == 0 {
		return ""
	}
	what := "trace"
	switch {
	case wantTrace && wantAttrib:
		what = "trace+attrib"
	case wantAttrib:
		what = "attrib"
	}
	return fmt.Sprintf("sweep: event obs: sharded (%s captured on the parallel kernel for %d experiment(s), byte-identical to sequential)",
		what, shardedRuns)
}

// writeKProf emits the per-experiment kernel-profile reports as CSV
// and/or JSON, mirroring writeAttrib. Experiments that ran on the
// sequential kernel carry no report and are skipped — the fallback
// warnings already name them.
func writeKProf(exps []dircc.Experiment, results []dircc.ResultOrErr, csvPath, jsonPath string) error {
	var rows []kprof.Row
	for i, res := range results {
		if res.Err != nil || res.Result == nil || res.Result.KProf == nil {
			continue
		}
		exp := exps[i]
		rows = append(rows, kprof.Row{
			App: exp.App, Scheme: exp.Protocol, Procs: exp.Procs,
			Topology: orDefault(exp.Topology, "hypercube"),
			Shards:   res.Result.ShardPlan.Shards,
			Report:   res.Result.KProf,
		})
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "app,scheme,procs,topology,%s\n", strings.Join(kprof.CSVHeader(), ","))
		for _, r := range rows {
			fmt.Fprintf(f, "%s,%s,%d,%s,%s\n", r.App, r.Scheme, r.Procs, r.Topology,
				strings.Join(r.Report.CSVRow(), ","))
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := kprof.WriteRows(f, rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeAttrib emits the per-experiment latency-attribution reports as
// CSV and/or JSON. The main results CSV on stdout is untouched —
// attribution always goes to its own files.
func writeAttrib(exps []dircc.Experiment, results []dircc.ResultOrErr, csvPath, jsonPath string) error {
	type row struct {
		App      string         `json:"app"`
		Scheme   string         `json:"scheme"`
		Procs    int            `json:"procs"`
		Topology string         `json:"topology"`
		Report   *attrib.Report `json:"report"`
	}
	var rows []row
	for i, res := range results {
		if res.Err != nil || res.Result == nil || res.Result.Attrib == nil {
			continue
		}
		exp := exps[i]
		rows = append(rows, row{
			App: exp.App, Scheme: exp.Protocol, Procs: exp.Procs,
			Topology: orDefault(exp.Topology, "hypercube"),
			Report:   res.Result.Attrib.Report(),
		})
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "app,scheme,procs,topology,%s\n", attrib.CSVHeader())
		for _, r := range rows {
			fmt.Fprintf(f, "%s,%s,%d,%s,%s\n", r.App, r.Scheme, r.Procs, r.Topology, r.Report.CSVRow())
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stderrIsTerminal reports whether stderr is attached to a character
// device (a terminal), without cgo or external dependencies.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func without(ss []string, drop string) []string {
	var out []string
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// usageError reports a bad flag value with the usage text and exits 2,
// as the flag package does for a flag it cannot parse.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
