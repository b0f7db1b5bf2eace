package check

import (
	"os"
	"strings"
	"testing"
)

// pinnedStats is the exploration size of every grid config. It pins
// engine behaviour: any change to what an engine does in some
// interleaving, or to what its canonical state distinguishes, moves
// these counts. A deliberate change re-records the affected rows.
var pinnedStats = map[string]Stats{
	"fm-p2":                 {States: 77, Transitions: 110, Terminals: 3, MaxDepth: 18},
	"fm-p3":                 {States: 164, Transitions: 317, Terminals: 4, MaxDepth: 14},
	"fm-p3-conflict":        {States: 960, Transitions: 2138, Terminals: 12, MaxDepth: 22},
	"dir1b-p3":              {States: 200, Transitions: 394, Terminals: 3, MaxDepth: 14},
	"dir2nb-p3":             {States: 218, Transitions: 418, Terminals: 5, MaxDepth: 14},
	"ll2-p3":                {States: 208, Transitions: 402, Terminals: 5, MaxDepth: 14},
	"sll-p3":                {States: 244, Transitions: 441, Terminals: 9, MaxDepth: 15},
	"sci-p3":                {States: 534, Transitions: 1069, Terminals: 8, MaxDepth: 19},
	"stp-p3":                {States: 240, Transitions: 448, Terminals: 5, MaxDepth: 16},
	"tree1x2-p3":            {States: 206, Transitions: 380, Terminals: 6, MaxDepth: 15},
	"tree2x2-p3":            {States: 202, Transitions: 380, Terminals: 6, MaxDepth: 14},
	"tree1x3-p3":            {States: 206, Transitions: 380, Terminals: 6, MaxDepth: 15},
	"tree1x2-p3-conflict":   {States: 1156, Transitions: 2651, Terminals: 12, MaxDepth: 22},
	"tree1x2-p4-wide":       {States: 994, Transitions: 2176, Terminals: 16, MaxDepth: 18},
	"tree2x3-p4-wide":       {States: 1045, Transitions: 2340, Terminals: 16, MaxDepth: 18},
	"tree2x2-p4-nosib":      {States: 1111, Transitions: 2516, Terminals: 16, MaxDepth: 18},
	"tree2x2-p3-update":     {States: 191, Transitions: 360, Terminals: 7, MaxDepth: 14},
	"fm-p4-wide":            {States: 721, Transitions: 1667, Terminals: 8, MaxDepth: 18},
	"dir2nb-p4-wide":        {States: 1255, Transitions: 2725, Terminals: 16, MaxDepth: 18},
	"dir2b-p4-wide":         {States: 1351, Transitions: 3121, Terminals: 13, MaxDepth: 18},
	"ll2-p4-wide":           {States: 1351, Transitions: 3121, Terminals: 13, MaxDepth: 18},
	"sll-p4-wide":           {States: 1268, Transitions: 2712, Terminals: 24, MaxDepth: 18},
	"sci-p4-wide":           {States: 2401, Transitions: 5839, Terminals: 16, MaxDepth: 24},
	"stp-p4-wide":           {States: 1332, Transitions: 2873, Terminals: 16, MaxDepth: 22},
	"sci-p4-storm":          {States: 267598, Transitions: 1042779, Terminals: 30, MaxDepth: 33},
	"sci-p4-conflict-storm": {States: 303014, Transitions: 1173855, Terminals: 42, MaxDepth: 36},
	"sci-p4-dirty-evict":    {States: 5236, Transitions: 15183, Terminals: 12, MaxDepth: 26},
	"sci-p4-purge-replace":  {States: 31425, Transitions: 99558, Terminals: 48, MaxDepth: 29},
	"stp-p4-dirty-evict":    {States: 2544, Transitions: 6159, Terminals: 23, MaxDepth: 26},
	"stp-p4-write-reread":   {States: 6956, Transitions: 17189, Terminals: 39, MaxDepth: 32},
	"sci-p4-write-reread":   {States: 38900, Transitions: 129434, Terminals: 16, MaxDepth: 35},
}

// TestExhaustive model-checks every engine in the grid. A violation
// fails the test with the minimal witness; its protocol-event trace is
// additionally dumped to check-witness-<name>.jsonl (gitignored) for
// offline inspection. A clean exploration must match its pinnedStats
// row.
func TestExhaustive(t *testing.T) {
	grid := Grid()
	if len(pinnedStats) != len(grid) {
		t.Errorf("pinnedStats has %d rows for %d grid configs", len(pinnedStats), len(grid))
	}
	for _, entry := range grid {
		entry := entry
		t.Run(entry.Config.Name, func(t *testing.T) {
			if entry.Wide && testing.Short() {
				t.Skip("wide state space; skipped under -short")
			}
			if entry.Wide && raceEnabled {
				t.Skip("wide state space; skipped under -race (single-threaded BFS, narrow grid covers the engines)")
			}
			t.Parallel()
			st, v, err := Run(entry.Config)
			if err != nil {
				t.Fatalf("exploration failed: %v", err)
			}
			if v != nil {
				dumpWitness(t, v)
				t.Fatalf("invariant violated:\n%s", v)
			}
			t.Logf("clean: %d states, %d transitions, %d terminals, depth %d",
				st.States, st.Transitions, st.Terminals, st.MaxDepth)
			if st.Terminals == 0 {
				t.Fatalf("no terminal state reached: the program cannot finish")
			}
			if want, ok := pinnedStats[entry.Config.Name]; !ok {
				t.Errorf("no pinnedStats row")
			} else if st != want {
				t.Errorf("explored %+v, pinned %+v", st, want)
			}
		})
	}
}

// dumpWitness writes the witness's event trace in the observability
// JSONL format next to the test binary's working directory.
func dumpWitness(t *testing.T, v *Violation) {
	t.Helper()
	if v.Trace == nil {
		return
	}
	name := "check-witness-" + v.Config + ".jsonl"
	f, err := os.Create(name)
	if err != nil {
		t.Logf("cannot write witness trace: %v", err)
		return
	}
	defer f.Close()
	if err := v.Trace.WriteJSONL(f); err != nil {
		t.Logf("cannot write witness trace: %v", err)
		return
	}
	t.Logf("witness trace written to %s", name)
}

// TestConfigValidation covers the config error paths.
func TestConfigValidation(t *testing.T) {
	if _, _, err := Run(Config{Name: "nil-engine", Procs: 2, Blocks: 1}); err == nil {
		t.Error("nil NewEngine accepted")
	}
	g := Grid()[0].Config
	g.Procs = 1
	if _, _, err := Run(g); err == nil || !strings.Contains(err.Error(), "procs") {
		t.Errorf("1-proc config: %v", err)
	}
	g = Grid()[0].Config
	g.Program = [][]Op{{{Kind: OpRead, Block: 9}}}
	if _, _, err := Run(g); err == nil || !strings.Contains(err.Error(), "block") {
		t.Errorf("out-of-range block: %v", err)
	}
}
