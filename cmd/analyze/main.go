// Command analyze computes the Weber-Gupta invalidation-pattern
// analysis (the paper's reference [10], its empirical justification for
// i=4 directory pointers) for a workload or a recorded trace file.
//
// Usage:
//
//	analyze -app mp3d -procs 16            # record then analyze
//	analyze -trace ref.trace               # analyze a recorded trace
//	analyze -app lu -blocks 8,16,32,64     # block-size sensitivity
//	analyze -attrib attrib.json            # pretty-print sweep attribution
//
// -attrib reads the latency-attribution JSON written by
// `sweep -attrib-json` and renders each experiment's phase breakdown,
// critical-path histogram, and invalidation-wave structure as aligned
// tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dircc"
	"dircc/internal/attrib"
	"dircc/internal/trace"
)

func main() {
	app := flag.String("app", "floyd", "workload to record and analyze")
	procs := flag.Int("procs", 16, "processors (recording mode)")
	full := flag.Bool("full", false, "paper-scale workload parameters")
	traceFile := flag.String("trace", "", "analyze this trace file instead of recording")
	blocks := flag.String("blocks", "8", "comma-separated block sizes in bytes")
	jsonOut := flag.Bool("json", false, "print the analysis as JSON instead of text")
	attribFile := flag.String("attrib", "", "pretty-print a latency-attribution JSON file written by sweep -attrib-json")
	flag.Parse()

	if *procs < 2 {
		usageError("-procs must be at least 2 (got %d)", *procs)
	}
	var blockSizes []int
	for _, bs := range strings.Split(*blocks, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(bs))
		if err != nil || b < 1 {
			usageError("-blocks entries must be positive integers (got %q)", bs)
		}
		blockSizes = append(blockSizes, b)
	}

	if *attribFile != "" {
		if err := printAttrib(*attribFile); err != nil {
			fail(err)
		}
		return
	}

	var tr *dircc.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fail(err)
		}
		var terr error
		tr, terr = trace.ReadFrom(f)
		f.Close()
		if terr != nil {
			fail(terr)
		}
		if !*jsonOut {
			fmt.Printf("trace %s: %d processors, %d events\n\n", *traceFile, tr.Procs, tr.Events())
		}
	} else {
		var err error
		tr, _, err = dircc.RecordTrace(dircc.Experiment{
			App: *app, Protocol: "fm", Procs: *procs, Full: *full,
		})
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("workload %s on %d processors: %d events recorded\n\n", *app, *procs, tr.Events())
		}
	}

	// patternJSON is one block size's analysis in machine-readable form.
	type patternJSON struct {
		BlockBytes int      `json:"block_bytes"`
		Writes     uint64   `json:"writes"`
		Reads      uint64   `json:"reads"`
		Blocks     int      `json:"blocks"`
		Mean       float64  `json:"mean_invalidation_degree"`
		MaxSharers int      `json:"max_sharers"`
		FracLe4    float64  `json:"fraction_le_4"`
		Degree     []uint64 `json:"degree"`
	}
	var jsonRows []patternJSON

	for _, b := range blockSizes {
		p := trace.Analyze(tr, b)
		if *jsonOut {
			jsonRows = append(jsonRows, patternJSON{
				BlockBytes: b, Writes: p.Writes, Reads: p.Reads, Blocks: p.Blocks,
				Mean: p.Mean(), MaxSharers: p.MaxSharers,
				FracLe4: p.Fraction(4), Degree: p.Degree,
			})
			continue
		}
		fmt.Printf("invalidation pattern at %d-byte blocks:\n%s\n", b, p.String())
		fmt.Printf("  => %.1f%% of writes invalidate <= 4 copies (the paper's i=4 rationale)\n\n",
			100*p.Fraction(4))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRows); err != nil {
			fail(err)
		}
	}
}

// printAttrib renders the sweep's latency-attribution JSON as one
// aligned table block per experiment.
func printAttrib(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rows []struct {
		App      string         `json:"app"`
		Scheme   string         `json:"scheme"`
		Procs    int            `json:"procs"`
		Topology string         `json:"topology"`
		Report   *attrib.Report `json:"report"`
	}
	if err := json.NewDecoder(f).Decode(&rows); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for i, r := range rows {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s / %s / %d procs / %s ===\n", r.App, r.Scheme, r.Procs, r.Topology)
		if r.Report == nil {
			fmt.Println("  (no report)")
			continue
		}
		r.Report.WriteTable(os.Stdout)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}

// usageError reports a bad flag value with the usage text and exits 2,
// as the flag package does for a flag it cannot parse.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "analyze: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
