// Package profiling is the shared -cpuprofile/-memprofile/-stats plumbing
// for the CLI commands that run simulations (titanrun, titancc -run).
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/titan"
)

// StartCPU begins a CPU profile written to path and returns the function
// that stops and closes it. With an empty path it is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path after a final GC so the
// profile reflects live objects, not collection timing. With an empty
// path it is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// FormatStats is the -stats line: host wall time of the simulation, the
// host's simulation throughput (simulated instructions and cycles per
// host second), and the modelled machine's own speed.
func FormatStats(r titan.Result, wall time.Duration) string {
	secs := wall.Seconds()
	instrsPerSec, nsPerCycle := 0.0, 0.0
	if secs > 0 && r.Instrs > 0 {
		instrsPerSec = float64(r.Instrs) / secs
	}
	if r.Cycles > 0 {
		nsPerCycle = float64(wall.Nanoseconds()) / float64(r.Cycles)
	}
	line := fmt.Sprintf("stats: wall=%v host_instrs_per_sec=%.0f ns_per_sim_cycle=%.2f sim_mflops=%.2f",
		wall.Round(time.Microsecond), instrsPerSec, nsPerCycle, r.MFLOPS())
	if r.SyncStalls > 0 {
		line += fmt.Sprintf(" sync_stall_cycles=%d", r.SyncStalls)
	}
	if r.MaskOps > 0 {
		util := 0.0
		if r.MaskLanesTotal > 0 {
			util = float64(r.MaskLanesActive) / float64(r.MaskLanesTotal)
		}
		line += fmt.Sprintf(" mask_ops=%d mask_lane_utilization=%.2f", r.MaskOps, util)
	}
	if procs := formatProcStats(r); procs != "" {
		line += "\n" + procs
	}
	return line
}

// formatProcStats renders the per-processor busy/stall/idle breakdown of
// the run's parallel regions, one line per processor that did work, or
// "" when the program never forked.
func formatProcStats(r titan.Result) string {
	out := ""
	for pid, ps := range r.Procs {
		if ps.Busy == 0 && ps.SyncStall == 0 && ps.JoinIdle == 0 {
			continue
		}
		if out != "" {
			out += "\n"
		}
		out += fmt.Sprintf("  proc %d: busy=%d sync_stall=%d join_idle=%d", pid, ps.Busy, ps.SyncStall, ps.JoinIdle)
	}
	return out
}
