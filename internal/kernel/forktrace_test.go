package kernel_test

import (
	"strings"
	"testing"

	"ufork/internal/baseline/posix"
	"ufork/internal/baseline/vmclone"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/sim"
)

// argOf returns ev's arg named key (the zero Arg when absent).
func argOf(ev obs.Event, key string) obs.Arg {
	for _, a := range ev.Args {
		if a.Key == key {
			return a
		}
	}
	return obs.Arg{}
}

// TestForkPhaseSpansTileForkSpan traces one fork per engine. The fork's
// cat:"fork" phase spans must lie end to end inside its fork:<engine>
// span and sum exactly to the fork latency the kernel recorded, and the
// child's fault spans must name the copy mode that resolved them.
func TestForkPhaseSpansTileForkSpan(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	cases := []struct {
		name    string
		machine *model.Machine
		engine  kernel.ForkEngine
		fault   string // fault span the child must produce, "" for none
		mode    string // its mode arg
		caps    bool   // whether it must relocate capabilities
	}{
		{"CoPA", model.UFork(1), core.New(core.CopyOnPointerAccess), "fault:cap-load", "copa", true},
		{"CoA", model.UFork(1), core.New(core.CopyOnAccess), "", "", false},
		{"FullCopy", model.UFork(1), core.New(core.CopyFull), "", "", false},
		{"posix", model.Posix(1), posix.New(), "fault:write-protect", "cow", false},
		{"vmclone", model.VMClone(1), vmclone.New(), "", "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := &obs.Obs{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(1 << 14)}
			k := kernel.New(kernel.Config{Machine: c.machine, Engine: c.engine,
				Isolation: kernel.IsolationFull, Frames: 1 << 16, Obs: o})
			var parent kernel.PID
			var latency sim.Time
			_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
				parent = p.PID
				// A capability in the heap: the CoPA child's load of it
				// faults and relocates it.
				if err := p.StoreCap(p.HeapCap, 0, p.HeapCap); err != nil {
					t.Error(err)
					return
				}
				_, err := k.Fork(p, func(c *kernel.Proc) {
					if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
						t.Errorf("child cap load: %v", err)
					}
					if err := c.Store(c.HeapCap, 64, []byte("dirty")); err != nil {
						t.Errorf("child store: %v", err)
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Error(err)
				}
				latency = p.LastFork.Latency
			})
			if err != nil {
				t.Fatal(err)
			}
			k.Run()

			var fork *obs.Event
			var phases []obs.Event
			evs := o.Tracer.Events()
			for i, ev := range evs {
				if ev.PID != int(parent) || ev.Cat != "fork" {
					continue
				}
				if strings.HasPrefix(ev.Name, "fork:") {
					fork = &evs[i]
				} else {
					phases = append(phases, ev)
				}
			}
			if fork == nil {
				t.Fatal("no fork:<engine> span")
			}
			if want := "fork:" + c.engine.Name(); fork.Name != want {
				t.Errorf("fork span %q, want %q", fork.Name, want)
			}
			if latency == 0 || fork.Dur != uint64(latency) {
				t.Errorf("fork span dur %d, LastFork.Latency %d", fork.Dur, latency)
			}
			if len(phases) < 2 {
				t.Fatalf("fork has %d phase spans, want at least 2", len(phases))
			}
			at, sum := fork.TS, uint64(0)
			for _, ph := range phases {
				if ph.TS != at {
					t.Errorf("phase %s starts at %d, want %d (end of the previous phase)", ph.Name, ph.TS, at)
				}
				at = ph.TS + ph.Dur
				sum += ph.Dur
			}
			if sum != uint64(latency) || at != fork.TS+fork.Dur {
				t.Errorf("phases sum to %d ending at %d; fork span is %d ending at %d: %+v",
					sum, at, fork.Dur, fork.TS+fork.Dur, phases)
			}

			var faults []obs.Event
			for _, ev := range evs {
				if ev.Cat == "vm" && ev.PID != int(parent) {
					faults = append(faults, ev)
				}
			}
			if c.fault == "" {
				return
			}
			found := false
			for _, ev := range faults {
				if ev.Name == c.fault && argOf(ev, "mode").Str == c.mode && (!c.caps || argOf(ev, "caps").Val > 0) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s span with mode=%s (caps>0: %v) in child faults %+v", c.fault, c.mode, c.caps, faults)
			}
		})
	}
}
