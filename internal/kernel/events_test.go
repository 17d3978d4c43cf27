package kernel_test

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"ufork/internal/baseline/posix"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
)

var updateEvents = flag.Bool("update", false, "rewrite testdata/events.golden")

// eventScenario is one scripted run for the event-stream golden. body runs
// as the root μprocess; snap takes the mid-run memmap snapshot.
type eventScenario struct {
	name    string
	machine *model.Machine
	engine  kernel.ForkEngine
	body    func(t *testing.T, k *kernel.Kernel, p *kernel.Proc, snap func())
}

var eventScenarios = []eventScenario{
	{
		// A CoPA fork whose child loads a capability from a shared heap
		// page: a cap-load fault that relocates it.
		name: "copa-cap-load", machine: model.UFork(1), engine: core.New(core.CopyOnPointerAccess),
		body: func(t *testing.T, k *kernel.Kernel, p *kernel.Proc, snap func()) {
			if err := p.StoreCap(p.HeapCap, 0, p.HeapCap); err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
					t.Errorf("child cap load: %v", err)
				}
				snap()
			}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
			}
		},
	},
	{
		// A posix fork whose child writes a shared heap page: a
		// write-protect fault resolved by CoW.
		name: "posix-cow", machine: model.Posix(1), engine: posix.New(),
		body: func(t *testing.T, k *kernel.Kernel, p *kernel.Proc, snap func()) {
			if err := p.Store(p.HeapCap, 0, []byte{1}); err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				if err := c.Store(c.HeapCap, 0, []byte{2}); err != nil {
					t.Errorf("child store: %v", err)
				}
				snap()
			}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
			}
		},
	},
	{
		// A traced pipe: the parent's op forks a writer child and reads
		// its two messages, so the trace gains a fork edge and the reader,
		// blocking on the second, a context switch.
		name: "pipe", machine: model.UFork(1), engine: core.New(core.CopyOnPointerAccess),
		body: func(t *testing.T, k *kernel.Kernel, p *kernel.Proc, snap func()) {
			k.TraceBegin(p, "events", "pipe-op")
			rfd, wfd, err := k.Pipe(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				// The first write races the parent onto the one core; the
				// second comes late enough that the parent's read blocks.
				for _, msg := range []string{"ping", "pong"} {
					if _, err := k.Write(c, wfd, []byte(msg)); err != nil {
						t.Errorf("child write: %v", err)
					}
					for i := 0; i < 8; i++ {
						k.Getpid(c)
					}
				}
			}); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4)
			for i := 0; i < 2; i++ {
				if _, err := k.Read(p, rfd, buf); err != nil {
					t.Errorf("read: %v", err)
				}
			}
			snap()
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
			}
			k.TraceEnd(p)
		},
	},
	{
		// Two children forking at once on the split-lock machine, whose
		// children write to a pipe they share: the forks and the writes
		// contend on the kernel's locks.
		name: "smp-lock", machine: model.UForkSMP(2), engine: core.New(core.CopyOnPointerAccess),
		body: func(t *testing.T, k *kernel.Kernel, p *kernel.Proc, snap func()) {
			worker := func(c *kernel.Proc) {
				_, wfd, err := k.Pipe(c)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 3; i++ {
					if _, err := k.Fork(c, func(g *kernel.Proc) {
						if _, err := k.Write(g, wfd, []byte("x")); err != nil {
							t.Errorf("grandchild write: %v", err)
						}
					}); err != nil {
						t.Errorf("grandchild fork: %v", err)
						return
					}
				}
				for i := 0; i < 3; i++ {
					if _, _, err := k.Wait(c); err != nil {
						t.Errorf("grandchild wait: %v", err)
					}
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := k.Fork(p, worker); err != nil {
					t.Error(err)
					return
				}
			}
			snap()
			for i := 0; i < 2; i++ {
				if _, _, err := k.Wait(p); err != nil {
					t.Error(err)
				}
			}
		},
	},
}

// TestEventStreamGolden pins every plane the kernel reports events to —
// the flight recorder's full text dump, the tracer's Chrome trace, the
// registry's counters and histograms, and the memmap provenance plane —
// over four scripted runs with all of them armed. The kernel emits each
// event once; this golden pins what each plane receives from it.
func TestEventStreamGolden(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	var out strings.Builder
	for _, sc := range eventScenarios {
		fr := flight.New(1, 1<<16)
		fr.Enable()
		o := &obs.Obs{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(1 << 16)}
		k := kernel.New(kernel.Config{Machine: sc.machine, Engine: sc.engine,
			Isolation: kernel.IsolationFull, Frames: 1 << 14, Obs: o, Flight: fr})
		pl := memmap.New()
		pl.Enable()
		k.ArmMemmap(pl)
		cp := causal.New(0)
		cp.Enable()
		k.ArmCausal(cp)
		k.ArmLockstat(sim.NewLockTable())

		var mid memmap.Snapshot
		snap := func() { mid = pl.Snapshot(1 << 14) }
		if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
			sc.body(t, k, p, snap)
		}); err != nil {
			t.Fatal(err)
		}
		k.Run()

		section := func(what string) { out.WriteString("== " + sc.name + ": " + what + " ==\n") }
		section("flight")
		out.WriteString(fr.TextDump(-1))
		section("chrome trace")
		if err := o.Tracer.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		section("registry")
		out.WriteString(o.Reg.Snapshot().Text())
		for _, s := range []struct {
			what string
			snap memmap.Snapshot
		}{{"memmap mid-run", mid}, {"memmap at end", pl.Snapshot(1 << 14)}} {
			section(s.what)
			b, err := json.MarshalIndent(s.snap, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			out.Write(b)
			out.WriteString("\n")
		}
	}
	for _, kind := range []string{"lock-wait", "fault ", "frame-owner", "trace-edge", "dispatch", "ctx-switch"} {
		if !strings.Contains(out.String(), kind) {
			t.Errorf("no %q event in the scripted runs", kind)
		}
	}

	const path = "testdata/events.golden"
	if *updateEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event stream differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("event stream differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
