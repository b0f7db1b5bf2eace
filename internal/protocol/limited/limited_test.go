package limited

import (
	"fmt"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/ptest"
	"dircc/internal/sim"
)

func TestConformanceNB(t *testing.T) {
	for _, i := range []int{1, 2, 4, 8} {
		i := i
		t.Run(fmt.Sprintf("Dir%dNB", i), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewNB(i) })
		})
	}
}

func TestConformanceB(t *testing.T) {
	for _, i := range []int{1, 4} {
		i := i
		t.Run(fmt.Sprintf("Dir%dB", i), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewB(i) })
		})
	}
}

func TestConformanceLimitLESS(t *testing.T) {
	for _, i := range []int{1, 4} {
		i := i
		t.Run(fmt.Sprintf("LimitLESS%d", i), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewLimitLESS(i) })
		})
	}
}

func TestNames(t *testing.T) {
	if NewNB(4).Name() != "Dir4NB" {
		t.Error("NB name wrong")
	}
	if NewB(2).Name() != "Dir2B" {
		t.Error("B name wrong")
	}
	if NewNB(3).Pointers() != 3 {
		t.Error("Pointers() wrong")
	}
}

func TestLimitLESSNameAndParams(t *testing.T) {
	e := NewLimitLESS(4)
	if e.Name() != "LimitLESS4" || e.Pointers() != 4 || e.trap != trapCycles {
		t.Fatalf("identity wrong: %s %d %d", e.Name(), e.Pointers(), e.trap)
	}
}

func TestNewPanicsOnZeroPointers(t *testing.T) {
	for name, ctor := range map[string]func(int) *Engine{"NewNB": NewNB, "NewB": NewB} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(0) did not panic", name)
				}
			}()
			ctor(0)
		}()
	}
}

func TestLimitLESSNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLimitLESS(0) did not panic")
		}
	}()
	NewLimitLESS(0)
}

// With i=2 and 4 sharers, Dir_iNB must evict pointers on overflow.
func TestNBPointerOverflowEvicts(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewNB(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 4 {
			// Serialize the four readers so overflow order is fixed.
			for turn := 0; turn < 4; turn++ {
				if turn == e.ID() {
					e.Read(addr)
				}
				e.Barrier()
			}
		} else {
			for turn := 0; turn < 4; turn++ {
				e.Barrier()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.PointerEvicts != 2 {
		t.Fatalf("pointer evictions = %d, want 2 (readers 3 and 4 overflow)", m.Ctr.PointerEvicts)
	}
	if m.Ctr.Invalidations != 2 {
		t.Fatalf("eviction invalidations = %d, want 2", m.Ctr.Invalidations)
	}
}

// Dir_iB write miss after overflow must broadcast to all n-1 others.
func TestBroadcastOnOverflow(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewB(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 4 {
			e.Read(addr) // 4 readers overflow 2 pointers -> broadcast bit
		}
		e.Barrier()
		if e.ID() == 7 {
			e.Write(addr, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Broadcasts != 1 {
		t.Fatalf("broadcast rounds = %d, want 1", m.Ctr.Broadcasts)
	}
	if m.Ctr.Invalidations != 7 {
		t.Fatalf("broadcast invalidations = %d, want 7 (all but the writer)", m.Ctr.Invalidations)
	}
}

// Without overflow, Dir_iB behaves exactly like a pointer scheme: only
// the recorded sharers receive invalidations.
func TestBNoOverflowTargetsPointersOnly(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewB(4))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 3 {
			e.Read(addr)
		}
		e.Barrier()
		if e.ID() == 7 {
			e.Write(addr, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Broadcasts != 0 {
		t.Fatalf("broadcasts = %d, want 0", m.Ctr.Broadcasts)
	}
	if m.Ctr.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", m.Ctr.Invalidations)
	}
}

func TestDirectoryBits(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	// B·i·n·log n = 100 * 4 * 32 * 5.
	if got, want := NewNB(4).DirectoryBits(cfg, 100), int64(100*4*32*5); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

// sharePattern builds `sharers` sequential readers then one writer and
// returns the machine.
func sharePattern(t *testing.T, eng coherent.Engine, procs, sharers int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		for turn := 0; turn < sharers; turn++ {
			if turn == e.ID() {
				e.Read(addr)
			}
			e.Barrier()
		}
		if e.ID() == e.NProcs()-1 {
			e.Write(addr, 3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// Unlike Dir_iNB, LimitLESS records every sharer: a write miss after 8
// readers must send 8 invalidations even with only 4 hardware pointers.
func TestLimitLESSAllSharersInvalidated(t *testing.T) {
	m := sharePattern(t, NewLimitLESS(4), 16, 8)
	if m.Ctr.Invalidations != 8 {
		t.Fatalf("invalidations = %d, want 8 (software pointers must be honored)", m.Ctr.Invalidations)
	}
	if m.Ctr.PointerEvicts != 4 {
		t.Fatalf("software spills = %d, want 4 (readers 5..8)", m.Ctr.PointerEvicts)
	}
	if m.Ctr.Broadcasts != 1 {
		t.Fatalf("software-assisted rounds = %d, want 1", m.Ctr.Broadcasts)
	}
}

// No overflow, no traps: with sharers <= i the scheme must cost exactly
// what full-map costs.
func TestLimitLESSNoOverflowMatchesFullMap(t *testing.T) {
	ll := sharePattern(t, NewLimitLESS(4), 8, 3)
	fm := sharePattern(t, fullmap.New(), 8, 3)
	if ll.Ctr.Messages != fm.Ctr.Messages {
		t.Fatalf("messages %d vs full-map %d", ll.Ctr.Messages, fm.Ctr.Messages)
	}
	if ll.Ctr.Cycles != fm.Ctr.Cycles {
		t.Fatalf("cycles %d vs full-map %d (trap charged without overflow?)", ll.Ctr.Cycles, fm.Ctr.Cycles)
	}
	if ll.Ctr.PointerEvicts != 0 {
		t.Fatal("spill counted without overflow")
	}
}

// With overflow, the software handler delay must make LimitLESS slower
// than full-map on the same pattern (the paper's Table 1 penalty).
func TestLimitLESSTrapDelaySlowsOverflow(t *testing.T) {
	ll := sharePattern(t, NewLimitLESS(4), 16, 12)
	fm := sharePattern(t, fullmap.New(), 16, 12)
	if ll.Ctr.Messages != fm.Ctr.Messages {
		t.Fatalf("message counts should match full-map: %d vs %d", ll.Ctr.Messages, fm.Ctr.Messages)
	}
	if ll.Ctr.Cycles <= fm.Ctr.Cycles {
		t.Fatalf("LimitLESS (%d cycles) not slower than full-map (%d) despite 8 traps",
			ll.Ctr.Cycles, fm.Ctr.Cycles)
	}
}

// A larger trap cost must hurt more.
func TestLimitLESSTrapCostMonotone(t *testing.T) {
	withTrap := func(trap sim.Time) *Engine {
		e := NewLimitLESS(2)
		e.trap = trap
		return e
	}
	cheap := sharePattern(t, withTrap(10), 16, 10)
	dear := sharePattern(t, withTrap(500), 16, 10)
	if dear.Ctr.Cycles <= cheap.Ctr.Cycles {
		t.Fatalf("500-cycle traps (%d) not slower than 10-cycle traps (%d)",
			dear.Ctr.Cycles, cheap.Ctr.Cycles)
	}
}

func TestDirectoryBitsHardwareOnly(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	// Same as Dir_4NB: only the hardware pointers.
	want := int64(100 * 4 * 32 * 5)
	if got := NewLimitLESS(4).DirectoryBits(cfg, 100); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

func BenchmarkLimitLESS4Mix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return NewLimitLESS(4) })
}

func BenchmarkDir4NBMix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return NewNB(4) })
}
