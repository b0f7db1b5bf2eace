// Package hostprof writes the host-side CPU and heap profiles behind
// the command-line tools' -cpuprofile and -memprofile flags, for
// inspection with `go tool pprof`.
package hostprof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and opens memPath for
// a heap profile; an empty path skips that profile. Both files are
// created before any work is done, so an unwritable path fails at once.
// The returned stop ends the CPU profile and writes the heap profile;
// call it after the work. Calls after the first do nothing.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // settle the heap statistics the profile reports
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
