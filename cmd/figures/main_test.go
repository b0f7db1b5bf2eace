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
// before running any experiment.
func TestBadFlagsExitUsage(t *testing.T) {
	if args := os.Getenv("FIGURES_TEST_ARGS"); args != "" {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, msg string }{
		{"-fig 7", "-fig must be 0 (all) or one of 8..11"},
		{"-fig 12", "-fig must be 0 (all) or one of 8..11"},
		{"-fig -1", "-fig must be 0 (all) or one of 8..11"},
		{"-fig 11 -procs 1", "-procs entries must be integers of at least 2"},
		{"-fig 11 -procs 8,0", "-procs entries must be integers of at least 2"},
		{"-fig 11 -procs 8,x", "-procs entries must be integers of at least 2"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitUsage$")
		cmd.Env = append(os.Environ(), "FIGURES_TEST_ARGS="+c.args+" -schemes fm")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("figures %s: got %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), "figures: "+c.msg) || !strings.Contains(string(out), "Usage of") {
			t.Errorf("figures %s: no error and usage text in output:\n%s", c.args, out)
		}
	}
}
