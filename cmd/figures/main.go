// Command figures regenerates the paper's Figures 8-11: normalized
// execution time (relative to the full-map scheme) of each workload
// under fm, L8, L4, L2, L1, T8, T4, T2 and T1 on 8, 16 and 32
// processors.
//
// Usage:
//
//	figures              # all four figures, scaled-down workloads
//	figures -fig 10      # only Figure 10 (Floyd-Warshall)
//	figures -full        # paper-scale workload parameters
//	figures -procs 8,16  # restrict the machine sizes
//	figures -decompose   # per-phase read/write miss latency by scheme
//
// -decompose replaces the normalized-time tables with a latency
// decomposition: each scheme's mean miss latency split into the six
// attribution phases (issue, request transit, home queue, service,
// reply transit, tail), the quantitative backing for the paper's
// critical-path arguments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dircc"
	"dircc/internal/attrib"
	"dircc/internal/stats"
)

var figApps = map[int]string{8: "mp3d", 9: "lu", 10: "floyd", 11: "fft"}

func main() {
	fig := flag.Int("fig", 0, "figure number (8=mp3d, 9=lu, 10=floyd, 11=fft); 0 = all")
	plot := flag.Bool("plot", false, "render ASCII bar charts (baseline marked at 1.0)")
	decompose := flag.Bool("decompose", false, "print the per-phase miss-latency decomposition instead of normalized times")
	full := flag.Bool("full", false, "use the paper-scale workload parameters")
	procsFlag := flag.String("procs", "8,16,32", "comma-separated machine sizes")
	schemesFlag := flag.String("schemes", strings.Join(dircc.PaperSchemes(), ","), "comma-separated schemes")
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 2 {
			usageError("-procs entries must be integers of at least 2 (got %q)", s)
		}
		sizes = append(sizes, v)
	}
	schemes := strings.Split(*schemesFlag, ",")
	for i := range schemes {
		schemes[i] = strings.TrimSpace(schemes[i])
	}

	figs := []int{8, 9, 10, 11}
	if *fig != 0 {
		if _, ok := figApps[*fig]; !ok {
			usageError("-fig must be 0 (all) or one of 8..11 (got %d)", *fig)
		}
		figs = []int{*fig}
	}

	if *decompose {
		for _, f := range figs {
			app := figApps[f]
			for _, n := range sizes {
				if err := printDecomposition(app, n, schemes, *full); err != nil {
					fmt.Fprintf(os.Stderr, "figures: %s on %d procs: %v\n", app, n, err)
					os.Exit(1)
				}
			}
		}
		return
	}

	for _, f := range figs {
		app := figApps[f]
		fmt.Printf("Figure %d: normalized execution time for %s (fm = 1.00)\n", f, app)
		if !*plot {
			header := fmt.Sprintf("%-8s", "procs")
			for _, s := range schemes {
				header += fmt.Sprintf("%8s", s)
			}
			fmt.Println(header)
		}
		for _, n := range sizes {
			norm, err := dircc.NormalizedTimes(app, n, schemes, *full)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figures: %s on %d procs: %v\n", app, n, err)
				os.Exit(1)
			}
			if *plot {
				chart := &stats.BarChart{
					Title: fmt.Sprintf("%s, %d processors (│ = full-map baseline)", app, n),
					Width: 48,
					Ref:   1.0,
				}
				for _, s := range schemes {
					chart.Add(s, norm[s])
				}
				fmt.Println(chart.String())
				continue
			}
			row := fmt.Sprintf("%-8d", n)
			for _, s := range schemes {
				row += fmt.Sprintf("%8.3f", norm[s])
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

// printDecomposition runs every scheme with latency attribution on and
// prints the per-phase mean miss latency, reads and writes separately.
func printDecomposition(app string, procs int, schemes []string, full bool) error {
	exps := make([]dircc.Experiment, len(schemes))
	for i, s := range schemes {
		exps[i] = dircc.Experiment{
			App: app, Protocol: s, Procs: procs, Full: full,
			Obs: &dircc.ObsConfig{Attrib: true},
		}
	}
	results := dircc.RunExperiments(context.Background(), exps, 0)
	for _, cls := range []string{"read", "write"} {
		fmt.Printf("%s on %d processors: mean %s-miss latency by phase (cycles)\n", app, procs, cls)
		header := fmt.Sprintf("%-10s", "scheme")
		for ph := attrib.PhaseIssue; ph < attrib.NumPhases; ph++ {
			header += fmt.Sprintf("%14s", ph)
		}
		header += fmt.Sprintf("%14s%10s", "total", "path")
		fmt.Println(header)
		for i, res := range results {
			if res.Err != nil {
				return res.Err
			}
			rep := res.Result.Attrib.Report()
			agg := &rep.Reads
			if cls == "write" {
				agg = &rep.Writes
			}
			row := fmt.Sprintf("%-10s", schemes[i])
			for ph := attrib.PhaseIssue; ph < attrib.NumPhases; ph++ {
				row += fmt.Sprintf("%14.2f", agg.MeanPhase(ph))
			}
			row += fmt.Sprintf("%14.2f%10.2f", agg.MeanTotal(), agg.MeanPathMsgs())
			fmt.Println(row)
		}
		fmt.Println()
	}
	return nil
}

// usageError reports a bad flag value with the usage text and exits 2,
// as the flag package does for a flag it cannot parse.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
