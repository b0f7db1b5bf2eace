package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dircc"
	"dircc/internal/check"
	"dircc/internal/coherent"
)

// TestMain maps the host gauge's buffer, as the command does before
// its first pass.
func TestMain(m *testing.M) {
	if err := warmGauge(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// families names one scheme per engine family, plus the tree variants
// with other optional-interface answers (4-ary trees, update mode).
var families = []string{"fm", "L4", "B4", "LL4", "T4", "Dir4Tree4", "T4U", "sll", "sci", "stp"}

// smallExp is a quick experiment that misses, shares, invalidates and
// replaces under every family.
func smallExp(scheme string, shards int) dircc.Experiment {
	return dircc.Experiment{App: "fft", Protocol: scheme, Procs: 16, Shards: shards}
}

// TestDecoratedCountersIdentical: decorating the engine, the Env and
// the kernel and network probes changes no simulated counter, on the
// sequential and the parallel kernel, and the benchmark's own
// set-up/run split reproduces dircc.RunExperiment exactly.
func TestDecoratedCountersIdentical(t *testing.T) {
	for _, scheme := range families {
		for _, shards := range []int{1, 2} {
			exp := smallExp(scheme, shards)
			if shards > 1 {
				if plan, _ := dircc.ExplainShards(exp); plan.Shards != shards {
					continue // this family runs sequentially anyway
				}
			}
			want, err := dircc.RunExperiment(exp)
			if err != nil {
				t.Fatalf("%s/S%d: RunExperiment: %v", scheme, shards, err)
			}
			p, err := setupSim(exp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := runPrepared(p); err != nil {
				t.Fatalf("%s/S%d: plain run: %v", scheme, shards, err)
			}
			if !reflect.DeepEqual(want.Counters, p.m.Ctr) {
				t.Errorf("%s/S%d: benchmark run counters differ from RunExperiment", scheme, shards)
			}
			var sum layerSums
			m, _, err := tracedSim(exp, 0, &tracer{}, &sum, func() {})
			if err != nil {
				t.Fatalf("%s/S%d: traced run: %v", scheme, shards, err)
			}
			if !reflect.DeepEqual(want.Counters, m.Ctr) {
				t.Errorf("%s/S%d: decorated counters differ from undecorated", scheme, shards)
			}
			if sum.refs != want.Counters.Reads+want.Counters.Writes {
				t.Errorf("%s/S%d: Env decorator counted %d refs, counters say %d",
					scheme, shards, sum.refs, want.Counters.Reads+want.Counters.Writes)
			}
		}
	}
}

// TestExplainShardsOKUnderDecoration: every shard-safe family stays
// eligible for the parallel kernel when decorated, and the decorated
// machine really runs on two lanes.
func TestExplainShardsOKUnderDecoration(t *testing.T) {
	for _, scheme := range families {
		exp := smallExp(scheme, 2)
		plan, err := dircc.ExplainShards(exp)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ReasonToken != "ok" {
			t.Errorf("%s: ExplainShards = %s, want ok", scheme, plan.ReasonToken)
			continue
		}
		inner, _ := dircc.NewEngine(scheme)
		eng, err := wrapEngine(inner, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		if ss, ok := coherent.Engine(eng).(coherent.ShardSafe); !ok || !ss.ShardSafeEngine() {
			t.Errorf("%s: decorated engine is not shard-safe", scheme)
		}
		p, err := setupExp(exp, 0, eng)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if p.m.Shards() != 2 {
			t.Errorf("%s: decorated machine runs on %d lanes, want 2", scheme, p.m.Shards())
		}
	}
}

// TestDecoratorForwardsOptionalInterfaces: the decorator gives the
// same answers as the bare engine to every optional interface the
// machine and the checker type-assert.
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	for _, scheme := range families {
		inner, _ := dircc.NewEngine(scheme)
		eng, err := wrapEngine(inner, &tracer{})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		wantUpd := false
		if up, ok := inner.(coherent.UpdateProtocol); ok {
			wantUpd = up.UpdatesCopies()
		}
		if eng.UpdatesCopies() != wantUpd {
			t.Errorf("%s: UpdatesCopies = %v, want %v", scheme, eng.UpdatesCopies(), wantUpd)
		}
		if eng.ShardSafeEngine() != inner.(coherent.ShardSafe).ShardSafeEngine() {
			t.Errorf("%s: ShardSafeEngine differs", scheme)
		}
		if _, ok := inner.(coherent.ShapeChecker); ok != (eng.shape != nil) {
			t.Errorf("%s: shape checker not forwarded", scheme)
		}
	}
}

// TestDecoratedCheckStats: the decorating, counting engine factory
// leaves the checker's exploration unchanged.
func TestDecoratedCheckStats(t *testing.T) {
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range check.Grid() {
		if g.Wide {
			continue
		}
		var sum layerSums
		tr := &tracer{}
		got, err := tracedCheck(g.Config, tr, &sum)
		if err != nil {
			t.Fatalf("%s: %v", g.Config.Name, err)
		}
		if want := *pinned["check-grid"][g.Config.Name].Check; got != want {
			t.Errorf("%s: decorated stats %+v, pinned %+v", g.Config.Name, got, want)
		}
		if calls, _ := tr.protocolTotals(); calls == 0 || sum.replays == 0 || sum.events == 0 {
			t.Errorf("%s: tracing saw %d handler calls, %d replays, %d events", g.Config.Name, calls, sum.replays, sum.events)
		}
	}
}

// TestPinnedPerturbationTrips: a pass matching pinned.json passes the
// output check, and changing one pinned value fails it.
func TestPinnedPerturbationTrips(t *testing.T) {
	for _, tc := range []struct {
		workload string
		key      string
		perturb  func(*opStats)
	}{
		{"sweep-default", "fft/T4/p8", func(s *opStats) { s.Sim.Cycles++ }},
		{"sweep-default", "fft/T4/p8", func(s *opStats) { s.Sim.ReplaceInvs++ }},
		{"check-grid", "fm-p2", func(s *opStats) { s.Check.Transitions-- }},
	} {
		ops, err := workloadOps(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		var one []op
		for _, o := range ops {
			if o.key() == tc.key {
				one = append(one, o)
			}
		}
		r := runPass(one, 0)
		pinned, err := loadPinned()
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(pinned, tc.workload, 0, r)
		if len(r.failures) != 0 {
			t.Fatalf("%s: failures against pinned.json: %v", tc.key, r.failures)
		}
		s := pinned[tc.workload][tc.key]
		if s.Sim != nil {
			c := *s.Sim
			s.Sim = &c
		} else {
			c := *s.Check
			s.Check = &c
		}
		tc.perturb(&s)
		pinned[tc.workload][tc.key] = s
		checkPinned(pinned, tc.workload, 0, r)
		if len(r.failures) != 1 {
			t.Errorf("%s: perturbed pinned value gave failures %v, want one", tc.key, r.failures)
		}
		// Checker configs have no inputs, so they are compared at any
		// seed; experiments only at the pinned seed 0.
		r.failures = map[string]string{}
		checkPinned(pinned, tc.workload, 1, r)
		want := 0
		if s.Check != nil {
			want = 1
		}
		if len(r.failures) != want {
			t.Errorf("%s: perturbed pinned value at seed 1 gave failures %v, want %d", tc.key, r.failures, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames: every metric name is well formed, the traced pass
// reports exactly the per-layer list, and BENCHMARK.json declares the
// same metrics as the program.
func TestMetricNames(t *testing.T) {
	for _, m := range endToEnd {
		if !nameRE.MatchString(m.name) {
			t.Errorf("bad end-to-end metric name %q", m.name)
		}
	}
	for _, m := range perLayer {
		if !nameRE.MatchString(m.name) {
			t.Errorf("bad per-layer metric name %q", m.name)
		}
	}
	one := []float64{gaugeRefS}
	got := layerValues([]*passResult{{wallS: 1, gaugeS: one}}, []*passResult{{wallS: 1, gaugeS: one, layers: (&layerSums{}).finish(&tracer{})}})
	if len(got) != len(perLayer) {
		t.Errorf("traced pass reports %d metrics, perLayer lists %d", len(got), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := got[m.name]; !ok {
			t.Errorf("per-layer metric %s is not reported", m.name)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program %s %s", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}
