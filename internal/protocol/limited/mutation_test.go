package limited_test

import (
	"strings"
	"testing"

	"dircc/internal/check"
	"dircc/internal/coherent"
	"dircc/internal/protocol/limited"
)

// TestBroadcastMutantCaught is the model checker's self-test for the
// overflow branch: a Dir_iB that drops its broadcast bit must be caught
// on the dir1b-p3 grid config, where the second reader overflows the
// single pointer, while the real engine explores clean.
func TestBroadcastMutantCaught(t *testing.T) {
	var good check.Config
	for _, e := range check.Grid() {
		if e.Config.Name == "dir1b-p3" {
			good = e.Config
		}
	}
	if good.NewEngine == nil {
		t.Fatal("dir1b-p3 is no longer in check.Grid")
	}
	if _, v, err := check.Run(good); err != nil {
		t.Fatalf("baseline exploration failed: %v", err)
	} else if v != nil {
		t.Fatalf("baseline engine flagged:\n%s", v)
	}

	bad := good
	bad.Name = "dir1b-p3-dropped-broadcast"
	bad.NewEngine = func() coherent.Engine { return limited.NewBDroppingBroadcast(1) }
	_, v, err := check.Run(bad)
	if err != nil {
		t.Fatalf("mutant exploration failed: %v", err)
	}
	if v == nil {
		t.Fatal("mutant engine not caught: the unrecorded overflow copy went unnoticed")
	}
	if !strings.Contains(v.Err, "coverage") {
		t.Errorf("expected a coverage violation, got: %s", v.Err)
	}
	if len(v.Steps) == 0 {
		t.Error("witness has no steps")
	}
	if v.Trace == nil || v.Trace.Len() == 0 {
		t.Error("witness replay recorded no protocol events")
	}
	t.Logf("mutant caught:\n%s", v)
}
