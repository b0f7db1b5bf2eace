package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadShardsExitUsage re-runs the test binary as the command with a
// negative -shards: it must exit 2 with the usage text instead of
// quietly running on the sequential kernel.
func TestBadShardsExitUsage(t *testing.T) {
	if args := os.Getenv("COHERENCESIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"coherencesim"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBadShardsExitUsage$")
	cmd.Env = append(os.Environ(), "COHERENCESIM_TEST_ARGS=-shards -3 -app fft -protocol fm -procs 4")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("got %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "coherencesim: -shards must be at least 1") || !strings.Contains(string(out), "Usage of") {
		t.Errorf("no error and usage text in output:\n%s", out)
	}
}
