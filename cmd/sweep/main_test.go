package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dircc"
)

// TestEventObsNote pins the sweep's stderr contract for sharded event
// observability: exactly one summary note when instrumented
// experiments ran on the parallel kernel, nothing otherwise.
func TestEventObsNote(t *testing.T) {
	cases := []struct {
		name                string
		trace, attrib       bool
		shardedRuns         int
		want                string // "" = no note; otherwise a required substring
		wantEmpty, wantNote bool
	}{
		{name: "no-obs", shardedRuns: 4, wantEmpty: true},
		{name: "sequential-sweep", trace: true, attrib: true, shardedRuns: 0, wantEmpty: true},
		{name: "trace-only", trace: true, shardedRuns: 3, want: "(trace captured", wantNote: true},
		{name: "attrib-only", attrib: true, shardedRuns: 1, want: "(attrib captured", wantNote: true},
		{name: "both", trace: true, attrib: true, shardedRuns: 2, want: "(trace+attrib captured", wantNote: true},
	}
	for _, tc := range cases {
		note := eventObsNote(tc.trace, tc.attrib, tc.shardedRuns)
		if tc.wantEmpty {
			if note != "" {
				t.Errorf("%s: unexpected note %q", tc.name, note)
			}
			continue
		}
		if !strings.HasPrefix(note, "sweep: event obs: sharded ") {
			t.Errorf("%s: note %q missing the stable prefix", tc.name, note)
		}
		if !strings.Contains(note, tc.want) {
			t.Errorf("%s: note %q missing %q", tc.name, note, tc.want)
		}
		if strings.Contains(note, "\n") {
			t.Errorf("%s: note must be a single line, got %q", tc.name, note)
		}
	}
}

// TestTraceAttribNeverFallBack is the other half of the stderr
// contract: the per-run fallback warning is keyed off
// ShardPlan.Fallback(), so trace/attrib sweeps stay warning-free
// because their shard plans resolve to "ok" on shard-safe engines.
func TestTraceAttribNeverFallBack(t *testing.T) {
	for _, oc := range []*dircc.ObsConfig{
		{Trace: true},
		{Attrib: true},
		{Trace: true, Attrib: true},
	} {
		exp := dircc.Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Obs: oc}
		plan, err := dircc.ExplainShards(exp)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Fallback() || plan.ReasonToken != "ok" {
			t.Errorf("obs %+v: plan %+v would trigger the per-run fallback warning", oc, plan)
		}
	}
}

// TestMain lets a test re-run the test binary as the command itself:
// with SWEEP_TEST_ARGS set, the binary runs main with those arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("SWEEP_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs the command with args on a tiny grid and returns its
// combined output and exit status.
func runSweep(t *testing.T, args string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SWEEP_TEST_ARGS="+args+" -apps fft -schemes fm -procs 8")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("sweep %s: %v", args, err)
	}
	return out, 0
}

// TestBadFlagsExitUsage re-runs the test binary as the command with
// flag values it must refuse: each must exit 2 with the usage text
// before running anything. The grid is kept tiny so a regression that
// accepts the value finishes quickly and fails on the exit code.
func TestBadFlagsExitUsage(t *testing.T) {
	for _, bad := range []string{"-j -2", "-shards -3", "-sample-every 0 -timeseries-dir " + t.TempDir()} {
		out, code := runSweep(t, bad)
		if code != 2 {
			t.Errorf("sweep %s: exit status %d, want 2\n%s", bad, code, out)
		}
		flagName := strings.Fields(bad)[0]
		if !strings.Contains(string(out), "sweep: "+flagName+" must be") || !strings.Contains(string(out), "Usage of") {
			t.Errorf("sweep %s: no error and usage text in output:\n%s", bad, out)
		}
	}
}

// TestProfileFlags checks that -cpuprofile and -memprofile write
// non-empty profiles, and that an unwritable profile path fails the
// command with a message before it runs the grid.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if out, code := runSweep(t, "-cpuprofile "+cpu+" -memprofile "+mem); code != 0 {
		t.Fatalf("sweep with profiles: exit status %d\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		bad := filepath.Join(dir, "missing", "x.prof")
		out, code := runSweep(t, flagName+" "+bad)
		if code == 0 || !strings.Contains(string(out), "sweep: ") || !strings.Contains(string(out), bad) {
			t.Errorf("sweep %s %s: exit status %d, want a failure naming the path\n%s", flagName, bad, code, out)
		}
		if strings.Contains(string(out), "app,scheme") {
			t.Errorf("sweep %s %s ran the grid despite the bad path", flagName, bad)
		}
	}
}
