package kernel

import (
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// This file is the kernel's one probe point: each kernel event is one
// call to a method here, which hands it, in plain code, to every plane
// that records it — the flight recorder (k.Flight), the obs registry and
// tracer (k.Obs, behind the global obs switch) and the memmap provenance
// plane (k.Memmap). No other non-test code in the package writes to
// them; DESIGN.md ("Kernel events") maps each event to its planes. Four
// hooks keep their own form because they need state a one-shot event
// does not carry: causal checkpoints, the profiler's fault windows,
// lockstat meters and the vm mapping observer (memObserver). A disarmed
// plane costs one atomic load, and no probe advances a virtual clock.

// emit records one flight event; a holds the kind's arguments. It is the
// probe's off-path guard and inlines (cost 80 of 80 on go1.24): each
// parameter costs a unit, hence one array for the arguments.
func (k *Kernel) emit(ts sim.Time, pid PID, kind flight.Kind, a [3]uint64) {
	if k.Flight.On() {
		k.record(ts, pid, kind, a)
	}
}

// record is emit's armed path, kept out of line so that emit inlines.
func (k *Kernel) record(ts sim.Time, pid PID, kind flight.Kind, a [3]uint64) {
	k.Flight.Emit(uint64(ts), int32(pid), kind, a[0], a[1], a[2])
}

// sysEnter is syscall entry.
func (k *Kernel) sysEnter(p *Proc, no SysNo) {
	k.emit(p.Task.Now(), p.PID, flight.KindSyscall, [3]uint64{uint64(no)})
	if obs.On() {
		k.Obs.Reg.Counter("syscall." + no.String()).Inc()
	}
}

// sysReturn is syscall return, which closes the syscall's span. The
// self-kill path returns twice; only the first return closes a span.
func (k *Kernel) sysReturn(p *Proc) {
	now := p.Task.Now()
	lat := uint64(now - p.sysEnter)
	k.emit(now, p.PID, flight.KindSysRet, [3]uint64{uint64(p.sysNo), lat})
	if obs.On() && p.inSys {
		k.Obs.Tracer.Complete(int(p.PID), p.Task.ID, p.sysNo.String(), "syscall", uint64(p.sysEnter), lat)
		k.Obs.Reg.Histogram("syscall.latency").Observe(lat)
	}
}

// lockWaited is a contended lock acquisition that stalled p for w.
func (k *Kernel) lockWaited(p *Proc, w sim.Time) {
	k.emit(p.Task.Now(), p.PID, flight.KindLockWait, [3]uint64{uint64(w), uint64(p.sysNo)})
}

// ctxSwitch is a scheduler context switch billed to p from now.
func (k *Kernel) ctxSwitch(p *Proc) {
	now, cost := p.Task.Now(), k.Machine.CtxSwitch
	k.emit(now, p.PID, flight.KindCtxSwitch, [3]uint64{uint64(cost)})
	if obs.On() {
		k.Obs.Tracer.Complete(int(p.PID), p.Task.ID, "ctx-switch", "sched", uint64(now), uint64(cost))
	}
}

// faultTaken is a page fault p takes now.
func (k *Kernel) faultTaken(p *Proc, f *vm.Fault) {
	k.emit(p.Task.Now(), p.PID, flight.KindFault, [3]uint64{uint64(f.Kind), f.VA})
	if obs.On() {
		k.Obs.Reg.Counter("vm.fault." + f.Kind.String()).Inc()
	}
}

// faultFailed is a fault taken at start whose handler failed.
func (k *Kernel) faultFailed(p *Proc, f *vm.Fault, start sim.Time) {
	if obs.On() {
		k.Obs.Tracer.Complete(int(p.PID), p.Task.ID, "fault:"+f.Kind.String(), "vm",
			uint64(start), uint64(p.Task.Now()-start), obs.A("va", f.VA))
	}
}

// faultResolved is a fault taken at start and resolved now in mode (an
// index of faultModeNames) by copying copied pages and relocating relocs
// capabilities. oldPFN is the faulting page's frame before the handler
// ran. Its span names the mode the kernel classified.
func (k *Kernel) faultResolved(p *Proc, f *vm.Fault, start sim.Time, oldPFN tmem.PFN, mode int, copied, relocs uint64) {
	if mode != 0 {
		k.frameOwnerChange(p, f.VA, oldPFN, mode, copied > 0)
	}
	now := p.Task.Now()
	k.emit(now, p.PID, flight.KindFaultDone, [3]uint64{uint64(f.Kind), copied, relocs})
	if obs.On() {
		k.Obs.Tracer.Complete(int(p.PID), p.Task.ID, "fault:"+f.Kind.String(), "vm",
			uint64(start), uint64(now-start), obs.A("va", f.VA),
			obs.S("mode", faultModeNames[mode]), obs.A("pages-copied", copied), obs.A("caps", relocs))
		if mode != 0 {
			k.Obs.Reg.Counter("fault.copy-relocate").Inc()
		}
	}
}

// frameOwnerChange is a fault resolution in mode that broke sharing on
// the page holding va: p now owns its frame exclusively (a fresh copy
// when copied, else the adopted last reference), split from oldPFN.
func (k *Kernel) frameOwnerChange(p *Proc, va uint64, oldPFN tmem.PFN, mode int, copied bool) {
	newPFN := oldPFN
	if pte := p.AS.Lookup(vm.VPNOf(va)); pte != nil {
		newPFN = pte.Page.PFN
	}
	if copied && newPFN != oldPFN {
		origin := memmap.OriginCoW
		if mode == 3 {
			origin = memmap.OriginCoPA
		}
		k.Memmap.Reclassify(newPFN, origin)
	}
	k.Memmap.OwnerChange(newPFN, int32(p.PID), p.Gen)
	from := newPFN
	if oldPFN != tmem.NoFrame {
		from = oldPFN
	}
	k.emit(p.Task.Now(), p.PID, flight.KindFrameOwnerChange, [3]uint64{uint64(newPFN), uint64(mode), uint64(from)})
}

// frameEvent is a frame allocation (alloc) or free, on behalf of the
// process the kernel is serving and at the running task's time (zero
// before Run). Only the simulation goroutine allocates — parallel fork
// workers copy into frames allocated before the fan-out — so curPID is
// stable here.
func (k *Kernel) frameEvent(alloc bool, pfn tmem.PFN) {
	kind := flight.KindFrameFree
	if alloc {
		kind = flight.KindFrameAlloc
	}
	if pl := k.Memmap; pl.On() {
		if !alloc {
			pl.OnFree(pfn)
		} else {
			pid, gen := k.curPID, 0
			if c := k.forkChild; c != nil {
				// Eager fork copies run on the parent's behalf but
				// materialize the child's image.
				pid, gen = c.PID, c.Gen
			} else if p, ok := k.procs[pid]; ok {
				gen = p.Gen
			}
			pl.OnAlloc(pfn, int32(pid), gen, k.memPhase)
		}
	}
	k.emit(k.Eng.Now(), k.curPID, kind, [3]uint64{uint64(pfn)})
}

// forkStart is fork-engine entry.
func (k *Kernel) forkStart(p *Proc) {
	k.emit(p.Task.Now(), p.PID, flight.KindForkStart, [3]uint64{})
}

// forkDone is a completed fork of child that started at start. The
// tracer gets the fork span with its phases laid end to end inside it
// (zero-length phases get none), the registry one latency histogram per
// phase (fork_phase_* on /metrics), and an armed memmap plane has both
// sides' smaps gauges refreshed, as the fork redrew their sharing.
func (k *Kernel) forkDone(p, child *Proc, start sim.Time, stats *ForkStats) {
	if k.Memmap.On() {
		k.refreshMemStats(p)
		k.refreshMemStats(child)
	}
	k.emit(start+stats.Latency, p.PID, flight.KindForkDone, [3]uint64{uint64(child.PID),
		uint64(stats.PagesCopied + stats.ProactivePages), uint64(stats.CapsRelocated)})
	if !obs.On() {
		return
	}
	tr, reg := k.Obs.Tracer, k.Obs.Reg
	pid, tid := int(p.PID), p.Task.ID
	tr.Complete(pid, tid, "fork:"+k.Engine.Name(), "fork",
		uint64(start), uint64(stats.Latency),
		obs.A("child-pid", uint64(child.PID)),
		obs.A("ptes-copied", uint64(stats.PTEsCopied)),
		obs.A("pages-copied", uint64(stats.PagesCopied)),
		obs.A("proactive-pages", uint64(stats.ProactivePages)),
		obs.A("caps-relocated", uint64(stats.CapsRelocated)))
	reg.Histogram("fork.latency." + k.Engine.Name()).Observe(uint64(stats.Latency))
	at := uint64(start)
	for _, ph := range stats.phases() {
		reg.Histogram(ph.hist).Observe(uint64(ph.d))
		if ph.d > 0 {
			tr.Complete(pid, tid, ph.name, "fork", at, uint64(ph.d))
			at += uint64(ph.d)
		}
	}
}

// spawned is a new μprocess, whose task starts at start.
func (k *Kernel) spawned(p *Proc, start sim.Time) {
	parent := PID(0)
	if p.Parent != nil {
		parent = p.Parent.PID
	}
	k.emit(start, p.PID, flight.KindProcSpawn, [3]uint64{uint64(parent)})
	k.Memmap.OnSpawn(int32(p.PID), int32(parent), p.Spec.Name, p.Gen)
	if obs.On() {
		k.Obs.Tracer.SetProcName(int(p.PID), p.Task.Name)
		k.Obs.Tracer.SetThreadName(int(p.PID), p.Task.ID, p.Task.Name)
	}
}

// exited is p's termination with status, before its image is released.
func (k *Kernel) exited(p *Proc, status int) {
	k.emit(p.Task.Now(), p.PID, flight.KindProcExit, [3]uint64{uint64(status)})
	k.Memmap.OnExit(int32(p.PID))
}

// dispatched is a core grant to t that queued for wait. The engine
// reports only grants that waited, and only with scheduler stats armed.
func (k *Kernel) dispatched(t *sim.Task, wait sim.Time) {
	k.emit(t.Now(), PID(t.Tag), flight.KindDispatch, [3]uint64{uint64(wait)})
}

// traceStarted is an op on p minting causal trace id.
func (k *Kernel) traceStarted(p *Proc, id causal.TraceID) {
	k.emit(p.Task.Now(), p.PID, flight.KindTraceStart, [3]uint64{uint64(id)})
}

// traceEdge is a kind handoff at time at from process from that pulled
// peer into trace id.
func (k *Kernel) traceEdge(at sim.Time, from PID, id causal.TraceID, kind causal.EdgeKind, peer PID) {
	k.emit(at, from, flight.KindTraceEdge, [3]uint64{uint64(id), uint64(kind), uint64(peer)})
}

// traceEnded is the end of trace id, rooted at p, whose op took lat.
func (k *Kernel) traceEnded(p *Proc, id causal.TraceID, lat sim.Time) {
	k.emit(p.Task.Now(), p.PID, flight.KindTraceEnd, [3]uint64{uint64(id), uint64(lat)})
}
