// Command tables regenerates the analytical tables of the paper:
//
//	-table 1   messages per read/write miss, analytic and measured
//	-table 3   the N1/N2 recurrences of Dir_2Tree_2
//	-table 4   maximum recorded processors versus tree level
//	-table mem directory storage overhead comparison (Section 2 formulas)
//
// Run with no flags to print every table.
package main

import (
	"flag"
	"fmt"
	"os"

	"dircc"
	"dircc/internal/treemath"
)

func main() {
	table := flag.String("table", "all", "which table to print: 1, 3, 4, mem, all")
	procs := flag.Int("procs", 32, "machine size for measured Table 1 rows")
	sharers := flag.Int("sharers", 8, "P, the sharers invalidated by the measured write miss")
	flag.Parse()

	if *procs < 2 {
		usageError("-procs must be at least 2 (got %d)", *procs)
	}
	if *sharers < 1 || *sharers >= *procs {
		usageError("-sharers must be between 1 and -procs - 1 (got %d with -procs %d)", *sharers, *procs)
	}

	switch *table {
	case "1":
		table1(*procs, *sharers)
	case "3":
		table3()
	case "4":
		table4()
	case "mem":
		tableMem()
	case "all":
		table1(*procs, *sharers)
		fmt.Println()
		table3()
		fmt.Println()
		table4()
		fmt.Println()
		tableMem()
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown -table %q\n", *table)
		os.Exit(1)
	}
}

// usageError reports a bad flag value with the usage text and exits 2,
// as the flag package does for a flag it cannot parse.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// table1 prints the paper's Table 1 message counts: the analytic column
// from the paper and the measured column from the protocol engines.
func table1(procs, sharers int) {
	fmt.Printf("Table 1: messages per miss (measured on %d processors, P=%d sharers)\n", procs, sharers)
	fmt.Printf("%-12s %-22s %-10s %-26s %-11s %s\n",
		"protocol", "paper read miss", "measured", "paper write miss", "measured", "inv latency (cycles)")
	p := sharers
	rows := []struct {
		scheme    string
		paperRead string
		paperWr   string
	}{
		{"fm", "2", fmt.Sprintf("2P+2 = %d", 2*p+2)},
		{"L4", "2", fmt.Sprintf("2P+2 = %d (+overflow)", 2*p+2)},
		{"LL4", "2", fmt.Sprintf("2P+2 = %d +(P-4) traps", 2*p+2)},
		{"B4", "2", fmt.Sprintf("2(n-1)+2 = %d (broadcast)", 2*(procs-1)+2)},
		{"T4", "2", "~log P"},
		{"sll", "3", fmt.Sprintf("P+2 = %d", p+2)},
		{"sci", "4", fmt.Sprintf("2P+4 = %d", 2*p+4)},
		{"stp", "4 to 8", "log P"},
	}
	for _, r := range rows {
		res, err := dircc.MeasureMisses(r.scheme, procs, sharers)
		if err != nil {
			fmt.Printf("%-12s (skipped: %v)\n", r.scheme, err)
			continue
		}
		fmt.Printf("%-12s %-22s %-10d %-26s %-11d %d\n",
			res.Protocol, r.paperRead, res.ReadMiss, r.paperWr, res.WriteMiss, res.InvLatency)
	}
	fmt.Println("(measured write miss includes the request and the ownership grant;")
	fmt.Println(" SCI tree extension is analytic-only: 4..2logP read, logP write — see DESIGN.md)")
}

func table3() {
	fmt.Println("Table 3: N1(j), N2(j) for Dir_2Tree_2 (recurrence vs closed form)")
	fmt.Printf("%-6s %-10s %-10s %-12s %-12s\n", "level", "N1", "closed j", "N2", "closed j(j+1)/2")
	for j := 1; j <= 12; j++ {
		n1, n2, c1, c2 := treemath.Table3Row(j)
		fmt.Printf("%-6d %-10d %-10d %-12d %-12d\n", j, n1, c1, n2, c2)
	}
}

func table4() {
	fmt.Println("Table 4: maximum processors recorded vs tree level")
	fmt.Printf("%-6s %-11s %-11s %-16s %-12s %s\n",
		"level", "Dir2Tree2", "Dir4Tree2", "Dir4Tree2-paper", "binary tree", "paper row (d2 d4 bin)")
	for level := 3; level <= 12; level++ {
		d2, d4, d4p, bin := dircc.Table4Row(level)
		p := treemath.PaperTable4[level]
		fmt.Printf("%-6d %-11d %-11d %-16d %-12d (%d %d %d)\n",
			level, d2, d4, d4p, bin, p[0], p[1], p[2])
	}
	fmt.Println("(Dir4Tree2 is Σ N_p(level); Dir4Tree2-paper is N_4(level+1)+1, the expression")
	fmt.Println(" matching the paper's printed column on rows 3 and 6-12 — see EXPERIMENTS.md)")
}

func tableMem() {
	fmt.Println("Directory storage (bits) for 32 processors, 1024 shared blocks/node, 16KB caches")
	cfg := dircc.DefaultConfig(32)
	schemes := []string{"fm", "L1", "L4", "L8", "T1", "T4", "T8"}
	bits, err := dircc.DirectoryOverheadBits(cfg, 1024, schemes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	for _, s := range schemes {
		fmt.Printf("%-6s %12d\n", s, bits[s])
	}
}
