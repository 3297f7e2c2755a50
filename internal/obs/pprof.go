package obs

// Host-side profiles (-cpuprofile / -memprofile): where the wall-clock went
// in Go terms, the complement of RunProfile's barrier/compute split. The CLI
// binaries and the federation worker share this one start/stop pair.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile written to cpuPath and arranges for a
// heap profile to be written to memPath; an empty path skips that profile.
// The returned stop finishes both files and must run once, before the
// process exits — a profile cut off by os.Exit is unreadable.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var cpuErr, memErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		if memPath != "" {
			memErr = writeHeapProfile(memPath)
		}
		return errors.Join(cpuErr, memErr)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // the heap profile reports as of the last collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
