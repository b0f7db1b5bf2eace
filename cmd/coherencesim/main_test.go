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

// expectUsageExit runs the command with args and checks that it exits
// 2 with msg and the usage text instead of running.
func expectUsageExit(t *testing.T, args, msg string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "COHERENCESIM_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("coherencesim %s: got %v, want exit status 2\n%s", args, err, out)
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
