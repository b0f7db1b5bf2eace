package main

import (
	"fmt"
	"strings"

	"dircc"
	"dircc/internal/apps"
	"dircc/internal/check"
	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/topology"
)

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"sweep-default", "mp3d-p1024", "check-grid"}

// slowGridConfigs are the check.Grid entries left out of check-grid:
// each takes about 20 s on its own, several times the rest of the grid.
var slowGridConfigs = map[string]bool{"sci-p4-storm": true, "sci-p4-conflict-storm": true}

// op is one closed-loop operation of a workload: a simulation
// experiment, or (when chk is non-nil) one model-checker config.
type op struct {
	exp dircc.Experiment
	chk *check.Config
}

// key names the op in pinned.json and in failure messages.
func (o op) key() string {
	if o.chk != nil {
		return o.chk.Name
	}
	app := o.exp.App
	if o.exp.Full {
		app += "-full"
	}
	return fmt.Sprintf("%s/%s/p%d", app, o.exp.Protocol, o.exp.Procs)
}

// workloadOps returns a workload's operations in run order.
func workloadOps(name string) ([]op, error) {
	var ops []op
	switch name {
	case "sweep-default":
		// cmd/sweep's default grid, in its output order.
		for _, app := range dircc.PaperApps() {
			for _, procs := range []int{8, 16, 32} {
				for _, scheme := range dircc.PaperSchemes() {
					ops = append(ops, op{exp: dircc.Experiment{App: app, Protocol: scheme, Procs: procs}})
				}
			}
		}
	case "mp3d-p1024":
		for _, scheme := range []string{"fm", "T4", "sci"} {
			ops = append(ops, op{exp: dircc.Experiment{App: "mp3d", Protocol: scheme, Procs: 1024, Full: true, Shards: 2}})
		}
	case "check-grid":
		for _, g := range check.Grid() {
			if slowGridConfigs[g.Config.Name] {
				continue
			}
			cfg := g.Config
			ops = append(ops, op{chk: &cfg})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return ops, nil
}

// prepared is a simulation op after set-up: a fresh machine with the
// workload's shared data allocated, ready for proc.Run.
type prepared struct {
	m      *coherent.Machine
	body   proc.Body
	verify func() error
}

// newApp builds the experiment's workload. Seed 0 keeps the apps'
// built-in input seeds; any other seed replaces them.
func newApp(exp dircc.Experiment, seed int64) (apps.App, error) {
	app, err := dircc.NewApp(exp.App, exp.Full)
	if err != nil || seed == 0 {
		return app, err
	}
	switch a := app.(type) {
	case *apps.MP3D:
		a.Seed = seed
	case *apps.LU:
		a.Seed = seed
	case *apps.Floyd:
		a.Seed = seed
	case *apps.FFT:
		a.Seed = seed
	default:
		return nil, fmt.Errorf("app %s takes no seed", exp.App)
	}
	return app, nil
}

// setupExp performs the set-up half of dircc.RunExperiment with the
// given engine: app inputs, machine and shared data. The run half is
// proc.Run plus the returned verify. The traced run passes a
// decorated engine here.
func setupExp(exp dircc.Experiment, seed int64, eng coherent.Engine) (*prepared, error) {
	app, err := newApp(exp, seed)
	if err != nil {
		return nil, err
	}
	cfg := dircc.DefaultConfig(exp.Procs)
	cfg.MaxEvents = 4_000_000_000
	topo, err := topology.HypercubeForNodes(cfg.Procs)
	if err != nil {
		return nil, err
	}
	plan, err := dircc.ExplainShards(exp)
	if err != nil {
		return nil, err
	}
	var m *coherent.Machine
	if plan.Shards > 1 {
		m, err = coherent.NewShardedMachineOn(cfg, eng, topo, plan.Shards)
	} else {
		m, err = coherent.NewMachineOn(cfg, eng, topo)
	}
	if err != nil {
		return nil, err
	}
	body, verify := app.Prepare(m)
	return &prepared{m: m, body: body, verify: verify}, nil
}

// checkRootMachine builds the model checker's initial state for cfg —
// the machine check.Run replays every path from — and is check-grid's
// set-up unit.
func checkRootMachine(cfg *check.Config, eng coherent.Engine) (*coherent.Machine, error) {
	mc := coherent.DefaultConfig(cfg.Procs)
	lines := cfg.CacheLines
	if lines == 0 {
		lines = 1
	}
	mc.CacheBytes = mc.BlockBytes * lines
	mc.CacheSets = 1
	mc.Check = true
	return coherent.NewMachine(mc, eng)
}

// simStats are the simulated statistics pinned per experiment.
type simStats struct {
	Refs          uint64 `json:"refs"`
	Cycles        uint64 `json:"cycles"`
	Messages      uint64 `json:"messages"`
	Bytes         uint64 `json:"bytes"`
	ReadMisses    uint64 `json:"read_misses"`
	WriteMisses   uint64 `json:"write_misses"`
	Invalidations uint64 `json:"invalidations"`
	ReplaceInvs   uint64 `json:"replace_invs"`
	Replacements  uint64 `json:"replacements"`
}

// checkStats are the exploration statistics pinned per checker config.
type checkStats struct {
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	Terminals   int `json:"terminals"`
	MaxDepth    int `json:"max_depth"`
}

// opStats is one op's outcome; exactly one field is set.
type opStats struct {
	Sim   *simStats   `json:"sim,omitempty"`
	Check *checkStats `json:"check,omitempty"`
}

// work is the op's unit count for work_per_s: simulated references,
// or canonical states explored.
func (s opStats) work() float64 {
	if s.Check != nil {
		return float64(s.Check.States)
	}
	return float64(s.Sim.Refs)
}

func simStatsOf(m *coherent.Machine) simStats {
	c := m.Ctr
	return simStats{
		Refs: c.Reads + c.Writes, Cycles: c.Cycles, Messages: c.Messages, Bytes: c.Bytes,
		ReadMisses: c.ReadMisses, WriteMisses: c.WriteMisses,
		Invalidations: c.Invalidations, ReplaceInvs: c.ReplaceInvs, Replacements: c.Replacements,
	}
}

// counterInvariants are seed-independent consistency checks on a
// finished run's counters, applied to every experiment.
func counterInvariants(m *coherent.Machine) error {
	c := m.Ctr
	switch {
	case c.ReadHits+c.ReadMisses != c.Reads:
		return fmt.Errorf("read hits %d + misses %d != reads %d", c.ReadHits, c.ReadMisses, c.Reads)
	case c.WriteHits+c.WriteMisses != c.Writes:
		return fmt.Errorf("write hits %d + misses %d != writes %d", c.WriteHits, c.WriteMisses, c.Writes)
	case c.Reads+c.Writes == 0 || c.Cycles == 0:
		return fmt.Errorf("empty run: %d refs, %d cycles", c.Reads+c.Writes, c.Cycles)
	}
	return nil
}

// runCheck runs one checker config and turns a violation into an
// error.
func runCheck(cfg check.Config) (checkStats, error) {
	st, v, err := check.Run(cfg)
	cs := checkStats{States: st.States, Transitions: st.Transitions, Terminals: st.Terminals, MaxDepth: st.MaxDepth}
	if err != nil {
		return cs, err
	}
	if v != nil {
		return cs, fmt.Errorf("violation: %s", v)
	}
	return cs, nil
}
