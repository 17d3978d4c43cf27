// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) on the simulated systems and
// reports the same rows/series the paper plots. DESIGN.md carries the
// per-experiment index; EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"strings"

	"ufork/internal/baseline/posix"
	"ufork/internal/baseline/vmclone"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/sim"
)

// SystemID names a benchmarked configuration.
type SystemID string

// The benchmarked systems and μFork copy-strategy variants.
const (
	SysUForkCoPA    SystemID = "uFork"         // CoPA, fault isolation
	SysUForkTocttou SystemID = "uFork+TOCTTOU" // CoPA, full adversarial isolation
	SysUForkCoA     SystemID = "uFork-CoA"
	SysUForkFull    SystemID = "uFork-FullCopy"
	SysUForkSMP     SystemID = "uFork-SMP" // CoPA with the split lock hierarchy
	SysPosix        SystemID = "CheriBSD"
	SysVMClone      SystemID = "Nephele"
)

// Parallelism bounds the host-side worker pool μFork engines fan eager
// fork copies across. 0 means one worker per available CPU; 1 forces
// serial execution. Virtual-time results are identical at every setting —
// only host wall-clock changes. Set from ufork-bench's -parallel flag.
var Parallelism int

// build creates a kernel for the given system with the given core count.
func build(id SystemID, cores int, frames int) *kernel.Kernel {
	if frames == 0 {
		frames = 1 << 17
	}
	ufork := func(mode core.CopyMode) *core.Engine {
		e := core.New(mode)
		e.Parallelism = Parallelism
		return e
	}
	var (
		m   *model.Machine
		eng kernel.ForkEngine
		iso kernel.IsolationLevel
	)
	switch id {
	case SysUForkCoPA:
		m, eng, iso = model.UFork(cores), ufork(core.CopyOnPointerAccess), kernel.IsolationFault
	case SysUForkTocttou:
		m, eng, iso = model.UFork(cores), ufork(core.CopyOnPointerAccess), kernel.IsolationFull
	case SysUForkCoA:
		m, eng, iso = model.UFork(cores), ufork(core.CopyOnAccess), kernel.IsolationFault
	case SysUForkFull:
		m, eng, iso = model.UFork(cores), ufork(core.CopyFull), kernel.IsolationFault
	case SysUForkSMP:
		m, eng, iso = model.UForkSMP(cores), ufork(core.CopyOnPointerAccess), kernel.IsolationFault
	case SysPosix:
		m, eng, iso = model.Posix(cores), posix.New(), kernel.IsolationFull
	case SysVMClone:
		m, eng, iso = model.VMClone(cores), vmclone.New(), kernel.IsolationFault
	default:
		panic("bench: unknown system " + string(id))
	}
	return kernel.New(kernel.Config{Machine: m, Engine: eng, Isolation: iso, Frames: frames})
}

// memMetric is the per-process memory of a forked child, reported the way
// the paper reports it and read from the kernel's smaps walk: for the
// multi-address-space baseline it is the proportional resident set (§5.2
// "We consider the proportional resident set"); for single-address-space
// systems it is the frames the child maps exclusively — shared frames stay
// attributed to the parent's region, which is how a SASOS kernel accounts
// region-owned memory.
func memMetric(p *kernel.Proc) uint64 {
	k := p.Kernel()
	r, _ := k.SmapsOf(p.PID)
	if k.Machine.SingleAddressSpace {
		return r.Total.USSBytes
	}
	return r.Total.PSSBytes
}

// runRoot spawns entry as the root process and drives the simulation,
// converting entry errors into Go errors.
func runRoot(k *kernel.Kernel, spec kernel.ProgramSpec, entry func(*kernel.Proc) error) error {
	var innerErr error
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		innerErr = entry(p)
	}); err != nil {
		return err
	}
	k.Run()
	return innerErr
}

// foldRun accumulates a finished run's kernel and address-space counters
// into the process-wide obs registry under prefix, so `-metrics` snapshots
// carry fault/copy/relocation counts alongside the rendered tables. The
// per-process address spaces of the multi-AS baselines die with their
// procs; for those only the kernel-level counters fold.
func foldRun(prefix string, k *kernel.Kernel) {
	reg := obs.Default.Reg
	for name, v := range k.Stats.Snapshot() {
		reg.Counter(prefix + "." + name).Add(v)
	}
	if k.SharedAS != nil {
		for name, v := range k.SharedAS.Stats.Snapshot() {
			reg.Counter(prefix + "." + name).Add(v)
		}
	}
}

// MB formats bytes as megabytes.
func MB(b uint64) string { return fmt.Sprintf("%.2f MB", float64(b)/(1024*1024)) }

// Ms formats a virtual duration as milliseconds.
func Ms(t sim.Time) string { return fmt.Sprintf("%.2f ms", float64(t)/float64(sim.Millisecond)) }

// Us formats a virtual duration as microseconds.
func Us(t sim.Time) string { return fmt.Sprintf("%.1f µs", float64(t)/float64(sim.Microsecond)) }

// Table renders rows as an aligned text table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
