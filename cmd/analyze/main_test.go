package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagsExitUsage re-runs the test binary as the command with
// flag values it must refuse: each must exit 2 with the usage text
// before recording or analyzing anything.
func TestBadFlagsExitUsage(t *testing.T) {
	if args := os.Getenv("ANALYZE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"analyze"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, msg string }{
		{"-procs 1", "-procs must be at least 2"},
		{"-procs -4", "-procs must be at least 2"},
		{"-blocks 0", "-blocks entries must be positive integers"},
		{"-blocks 8,-16", "-blocks entries must be positive integers"},
		{"-blocks 8,x", "-blocks entries must be positive integers"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitUsage$")
		cmd.Env = append(os.Environ(), "ANALYZE_TEST_ARGS="+c.args+" -app fft")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("analyze %s: got %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), "analyze: "+c.msg) || !strings.Contains(string(out), "Usage of") {
			t.Errorf("analyze %s: no error and usage text in output:\n%s", c.args, out)
		}
	}
}
