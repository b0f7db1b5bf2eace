package check

import (
	"testing"

	"dircc/internal/coherent"
)

// TestReplayCount pins the checker's replay budget: one replay for the
// initial state, one per explored transition, and one per terminal
// state. Expanding a state reuses the replay that listed its choices
// for the first of them, so a regression to replaying every choice
// afresh (1 + States + Transitions) shows up here even when the
// exploration counts stay put.
func TestReplayCount(t *testing.T) {
	want := map[string]bool{"fm-p3": true, "sci-p3": true, "tree1x2-p3": true, "stp-p3": true}
	for _, entry := range Grid() {
		if !want[entry.Config.Name] {
			continue
		}
		delete(want, entry.Config.Name)
		cfg := entry.Config
		t.Run(cfg.Name, func(t *testing.T) {
			calls := 0
			inner := cfg.NewEngine
			cfg.NewEngine = func() coherent.Engine {
				calls++
				return inner()
			}
			st, v, err := Run(cfg)
			if err != nil || v != nil {
				t.Fatalf("exploration not clean: err %v, violation %v", err, v)
			}
			if replays := 1 + st.Transitions + st.Terminals; calls != replays {
				t.Errorf("NewEngine called %d times, want 1 + %d transitions + %d terminals = %d",
					calls, st.Transitions, st.Terminals, replays)
			}
		})
	}
	for name := range want {
		t.Errorf("grid config %s not found", name)
	}
}
