package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// pinnedJSON holds every op's statistics at seed 0, recorded from the
// program the benchmark was defined on (regenerate with --pin).
//
//go:embed pinned.json
var pinnedJSON []byte

// pinnedStats maps workload, then op key, to the pinned statistics.
type pinnedStats map[string]map[string]opStats

// loadPinned decodes the built-in pinned.json.
func loadPinned() (pinnedStats, error) {
	var p pinnedStats
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned statistics: %w", err)
	}
	return p, nil
}

// checkPinned compares a pass at seed against the pinned statistics
// and fails every op that differs or has none. Checker configs have no
// inputs, so they are compared at every seed; experiments only at
// seed 0, the seed their statistics were pinned at.
func checkPinned(pinned pinnedStats, workload string, seed int64, r *passResult) {
	want := pinned[workload]
	for key, got := range r.stats {
		if got.Sim != nil && seed != 0 {
			continue
		}
		w, ok := want[key]
		switch {
		case !ok:
			r.fail(key, fmt.Errorf("no pinned statistics"))
		case !reflect.DeepEqual(w, got):
			g, _ := json.Marshal(got)
			p, _ := json.Marshal(w)
			r.fail(key, fmt.Errorf("statistics %s differ from pinned %s", g, p))
		}
	}
}

// checkSame fails every op of b whose statistics differ from a's, for
// two passes over the same inputs, traced or not.
func checkSame(a, b *passResult) {
	for key, got := range b.stats {
		if want, ok := a.stats[key]; ok && !reflect.DeepEqual(want, got) {
			b.fail(key, fmt.Errorf("statistics differ from the first pass's"))
		}
	}
}

// writePinned runs every workload once at seed 0 and writes the
// statistics as pinned.json.
func writePinned(w io.Writer) error {
	out := pinnedStats{}
	for _, name := range workloadNames {
		ops, err := workloadOps(name)
		if err != nil {
			return err
		}
		r := runPass(ops, 0)
		if len(r.failures) > 0 {
			return fmt.Errorf("%s: %d ops failed", name, len(r.failures))
		}
		out[name] = r.stats
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
