package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run the test binary as the command itself:
// with COHERENCESIM_TEST_ARGS set, the binary runs main with those
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("COHERENCESIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"coherencesim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command with args and returns its combined
// output and exit status.
func runCommand(t *testing.T, args string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "COHERENCESIM_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("coherencesim %s: %v", args, err)
	}
	return out, 0
}

// expectUsageExit runs the command with args and checks that it exits
// 2 with msg and the usage text instead of running.
func expectUsageExit(t *testing.T, args, msg string) {
	t.Helper()
	out, code := runCommand(t, args)
	if code != 2 {
		t.Errorf("coherencesim %s: exit status %d, want 2\n%s", args, code, out)
	}
	if !strings.Contains(string(out), "coherencesim: "+msg) || !strings.Contains(string(out), "Usage of") {
		t.Errorf("coherencesim %s: no error and usage text in output:\n%s", args, out)
	}
}

// TestBadShardsExitUsage checks that a negative -shards is refused
// instead of quietly running on the sequential kernel.
func TestBadShardsExitUsage(t *testing.T) {
	expectUsageExit(t, "-shards -3 -app fft -protocol fm -procs 4", "-shards must be at least 1")
}

// TestBadSampleEveryExitUsage checks that -sample-every 0 is refused
// instead of running and writing no time series.
func TestBadSampleEveryExitUsage(t *testing.T) {
	ts := filepath.Join(t.TempDir(), "ts.csv")
	expectUsageExit(t, "-sample-every 0 -timeseries "+ts+" -app fft -protocol fm -procs 4", "-sample-every must be at least 1")
	if _, err := os.Stat(ts); err == nil {
		t.Errorf("%s was written despite the bad flag", ts)
	}
}

// TestProfileFlags checks that -cpuprofile and -memprofile write
// non-empty profiles, and that an unwritable profile path fails the
// command with a message before it runs.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	const exp = " -app fft -protocol fm -procs 4"
	if out, code := runCommand(t, "-cpuprofile "+cpu+" -memprofile "+mem+exp); code != 0 {
		t.Fatalf("coherencesim with profiles: exit status %d\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		bad := filepath.Join(dir, "missing", "x.prof")
		out, code := runCommand(t, flagName+" "+bad+exp)
		if code == 0 || !strings.Contains(string(out), "coherencesim: ") || !strings.Contains(string(out), bad) {
			t.Errorf("coherencesim %s %s: exit status %d, want a failure naming the path\n%s", flagName, bad, code, out)
		}
		if strings.Contains(string(out), "result check") {
			t.Errorf("coherencesim %s %s ran despite the bad path", flagName, bad)
		}
	}
}
