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
// instead of printing skipped or meaningless rows.
func TestBadFlagsExitUsage(t *testing.T) {
	if args := os.Getenv("TABLES_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tables"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, msg string }{
		{"-table 1 -procs 0", "-procs must be at least 2"},
		{"-table 1 -procs 1", "-procs must be at least 2"},
		{"-table 1 -sharers -1", "-sharers must be between 1 and -procs - 1"},
		{"-table 1 -sharers 0", "-sharers must be between 1 and -procs - 1"},
		{"-table 1 -procs 8 -sharers 8", "-sharers must be between 1 and -procs - 1"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitUsage$")
		cmd.Env = append(os.Environ(), "TABLES_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tables %s: got %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), "tables: "+c.msg) || !strings.Contains(string(out), "Usage of") {
			t.Errorf("tables %s: no error and usage text in output:\n%s", c.args, out)
		}
	}
}
