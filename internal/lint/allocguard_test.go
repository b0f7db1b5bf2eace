package lint

import (
	"strings"
	"testing"
)

// TestAllocGuardFixture proves the escape gate end to end on a fixture
// package: an injected escape in a hotpath function is caught at the
// offending line, a clean hotpath function stays silent, and a
// //dirccvet:allow comment routes through the usual suppression.
func TestAllocGuardFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build")
	}
	pkgs, err := Load("dircc/internal/lint/testdata/allocguard")
	if err != nil {
		t.Fatal(err)
	}
	diags, hotpaths, err := RunAllocGuard(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if hotpaths != 3 {
		t.Errorf("checked %d hotpath functions, want 3 (sum, leak, condoned)", hotpaths)
	}

	var leakDiag, condonedDiag bool
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "hotpath leak allocates"):
			leakDiag = true
			// The diagnostic must name the offending line: the local
			// moved to the heap by the escaping return.
			if !strings.Contains(d.Message, "moved to heap") && !strings.Contains(d.Message, "escapes to heap") {
				t.Errorf("leak diagnostic lost the compiler reason: %s", d.Message)
			}
		case strings.Contains(d.Message, "hotpath condoned allocates"):
			condonedDiag = true
		case strings.Contains(d.Message, "hotpath sum allocates"):
			t.Errorf("false positive in the allocation-free function: %s", d.Message)
		case strings.Contains(d.Message, "cold"):
			t.Errorf("unannotated function reported: %s", d.Message)
		}
	}
	if !leakDiag {
		t.Errorf("injected escape not caught; diagnostics: %v", diags)
	}
	if !condonedDiag {
		t.Errorf("condoned allocation missing pre-suppression; diagnostics: %v", diags)
	}

	// Through RunAnalyzers, the allow comment must suppress condoned's
	// diagnostic and only leak's survive.
	final := RunAnalyzers(pkgs, nil, diags...)
	var survived []string
	for _, d := range final {
		survived = append(survived, d.Message)
		if strings.Contains(d.Message, "condoned") {
			t.Errorf("allow comment failed to suppress: %s", d.Message)
		}
	}
	foundLeak := false
	for _, m := range survived {
		if strings.Contains(m, "hotpath leak allocates") {
			foundLeak = true
		}
	}
	if !foundLeak {
		t.Errorf("leak diagnostic lost in RunAnalyzers: %v", survived)
	}
}

// TestHotpathAnnotationsHold is the real gate: every annotated function
// in the tree must pass escape analysis (modulo reviewed allows). This
// is the programmatic twin of CI's `dirccvet ./...`.
func TestHotpathAnnotationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build")
	}
	pkgs, err := Load("dircc/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, hotpaths, err := RunAllocGuard(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if hotpaths < 8 {
		t.Errorf("only %d hotpath functions found; the kernel event loop, lane drain and network Send should all be annotated", hotpaths)
	}
	for _, d := range RunAnalyzers(pkgs, nil, diags...) {
		if d.Analyzer == AllocGuardName {
			t.Errorf("%s", d)
		}
	}
}
