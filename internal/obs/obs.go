// Package obs is the kernel-wide observability layer: a low-overhead,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// latency histograms with percentile summaries) and a span tracer whose
// events carry monotonic sim-clock timestamps and export to Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto.
// WriteChrome is the repository's one trace_event writer: the tracer,
// the flight recorder and the causal plane all export through it.
//
// The kernel writes to this layer from one place, its probe
// (internal/kernel/probe.go), which also feeds the flight recorder and
// the memmap plane from the same call. Fork engines only fill
// kernel.ForkStats's phase fields; the probe turns those into the
// fork:<engine> span with one span per phase laid end to end inside it,
// and the fault:<kind> span carries the resolution's mode, pages-copied
// and caps args.
//
// Design constraints, in order:
//
//  1. Off by default. The whole layer sits behind one global switch; a
//     disabled hot-path probe is a single atomic load and branch, far
//     below benchmark noise (see obs_bench_test.go).
//  2. Zero virtual-time cost. Instrumentation never calls Advance/Work on
//     the simulation clock, so enabling tracing cannot perturb measured
//     results — the trace of a run and the run itself describe the same
//     timeline.
//  3. Race-safe. Counters and histograms are plain atomics; the trace
//     ring buffer takes a mutex only on the enabled path. `go test -race`
//     covers the whole package.
//
// Typical hot-path shape: whoever sees a span end records it whole.
//
//	if obs.On() {
//		k.Obs.Tracer.Complete(pid, tid, "ctx-switch", "sched", now, cost)
//		k.Obs.Reg.Histogram("syscall.latency").Observe(lat)
//	}
package obs

import (
	"fmt"
	"os"
	"sync/atomic"
)

// enabled is the single global switch. All span/histogram instrumentation
// sites check it before touching any obs state.
var enabled atomic.Bool

// Enable turns the observability layer on globally.
func Enable() { enabled.Store(true) }

// Disable turns the observability layer off globally (the default).
func Disable() { enabled.Store(false) }

// On reports whether the observability layer is enabled. This is the
// hot-path probe: one atomic load.
func On() bool { return enabled.Load() }

// Obs bundles one registry and one tracer — the handle a kernel instance
// carries so experiments can run side by side without sharing state.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
}

// New returns a fresh Obs with an empty registry and a default-capacity
// tracer.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Tracer: NewTracer(DefaultTraceEvents)}
}

// Default is the process-wide Obs. Kernels constructed without an explicit
// Obs share it, which is what lets `ufork-bench -metrics` aggregate counts
// across every kernel an experiment sweep boots.
var Default = New()

// WriteTraceFile writes the tracer's Chrome trace_event JSON to path.
func (o *Obs) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write trace %s: %w", path, err)
	}
	return f.Close()
}

// WriteMetricsFile writes a JSON snapshot of the registry to path.
func (o *Obs) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write metrics %s: %w", path, err)
	}
	return f.Close()
}
