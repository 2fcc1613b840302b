// Package profile writes the CPU and heap profiles behind the commands'
// -cpuprofile and -memprofile flags, in the format `go tool pprof` reads.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into the file cpu unless cpu is empty, and
// returns the function to call once the run is over: it ends the CPU
// profile and then, unless mem is empty, writes a heap profile of the
// finished run into the file mem. Call stop once.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		return writeHeap(mem)
	}, nil
}

// writeHeap writes the heap profile to path after a collection, so the
// in-use figures reflect the run's end rather than the last GC cycle.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
