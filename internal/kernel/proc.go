package kernel

import (
	"encoding/binary"
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// NumRegs is the size of the capability register file μFork relocates at
// fork (§3.5 step 2: "any absolute memory references contained in
// registers are relocated").
const NumRegs = 16

// Proc is one μprocess (or baseline process).
type Proc struct {
	k    *Kernel
	PID  PID
	Spec ProgramSpec
	// Layout is the image layout shared by parent and all descendants.
	Layout Layout
	// AS is the address space: the kernel-shared one on single-address-
	// space machines, private otherwise.
	AS *vm.AddressSpace
	// Region is the contiguous virtual range this μprocess owns (Fig. 1).
	Region Region
	// Task is the simulation thread running the process.
	Task *sim.Task

	// Capability register file. Regs are general-purpose capability
	// registers the program may stash pointers in across a fork; the named
	// capabilities are the ABI registers.
	Regs       [NumRegs]cap.Capability
	DDC        cap.Capability // default data capability (region bounds)
	PCC        cap.Capability // program counter capability (text)
	StackCap   cap.Capability
	HeapCap    cap.Capability
	GOTCap     cap.Capability
	MetaCap    cap.Capability // allocator metadata segment
	DataCap    cap.Capability
	TLSCap     cap.Capability
	SyscallCap cap.Capability // sealed kernel entry sentry

	FDs *FDTable

	Parent    *Proc
	children  []*Proc
	childExit sim.WaitQueue

	// OriginBase is the region base the process image's un-relocated
	// content refers to (the parent's region at fork time); equal to
	// Region.Base for a freshly loaded image.
	OriginBase uint64

	// Pending tracks region pages whose frames still hold ancestor-region
	// capabilities and need relocation when privatised: a region-offset
	// page bitmap maintained by the μFork engine. Nil for engines that
	// never defer relocation (the multi-address-space baselines).
	Pending *vm.PageSet

	exited     bool
	exitStatus int
	killed     bool
	sig        sigState

	// BrkPages tracks how many heap pages the program has asked for via
	// Sbrk; used by the demand-paged baseline heap accounting.
	BrkPages int

	// Acct is the per-μprocess accounting block (procfs-style counters the
	// ProcStat API, SYS_PROCSTAT, and the telemetry server snapshot live).
	Acct Accounting

	// Gen is the fork generation: 0 for a loaded root, parent's Gen+1 for
	// a forked child. The provenance plane stamps frame lineage with it.
	Gen int

	// AllocCache is a host-side cache owned by the heap allocator (package
	// alloc) and shared by every allocator view of this μprocess. The
	// allocator's state lives in simulated memory; the cache only speeds
	// up finding it. A forked child starts with none.
	AllocCache any

	// Forked counts forks performed by this process.
	Forked int
	// LastFork holds the statistics of the most recent fork this process
	// performed; the benchmark harness reads it for latency accounting.
	LastFork ForkStats

	// sysSpan is the in-flight syscall trace span (kernel entry through
	// exit); syscalls do not nest within one μprocess, so one slot is
	// enough. sysEnter is its start time for latency accounting and sysNo
	// the in-flight syscall number for the flight recorder's return event.
	sysSpan  obs.Span
	sysEnter sim.Time
	sysNo    SysNo

	// cspan is the process's live causal-trace span (internal/obs/causal):
	// a root minted by TraceBegin, or a member joined via a fork, pipe, or
	// signal edge. Nil when untraced — the one check every causal hook
	// pays on the disabled path. Touched only on the simulation goroutine.
	cspan *causal.Span

	// Profiler attribution state (internal/obs/profile), maintained only
	// while a plane is armed and touched only on the simulation
	// goroutine. inSys marks the kernel-entry→exit window so samples get
	// their syscall frame (sysNo alone goes stale after leave); profPhase
	// is the current phase frame (fork:<phase> during the fork latency
	// charge); profDepth/profBuf defer samples taken inside a
	// fault-service window until the handler resolves the copy mode that
	// names their phase.
	inSys     bool
	profPhase string
	profDepth int
	profBuf   []profSample

	// lk is the μprocess lock — the per-process footprint every syscall
	// acquires on fine-grained machines (rank uproc, seq = PID) — and fdlk
	// guards the descriptor table (rank fdtable). Initialized strict by
	// initProcLocks for every Proc; on BKL machines they are never
	// acquired, the BKL serializing instead. See kernel.lockPlane.
	lk   sim.VLock
	fdlk sim.VLock
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.exited }

// ExitStatus returns the exit status (valid once Exited).
func (p *Proc) ExitStatus() int { return p.exitStatus }

// Children returns the live children (for tests).
func (p *Proc) Children() []*Proc { return p.children }

// permForAccess maps a VM access kind to the capability permissions it
// requires.
func permForAccess(acc vm.Access) cap.Perm {
	switch acc {
	case vm.AccRead:
		return cap.PermLoad
	case vm.AccWrite:
		return cap.PermStore
	case vm.AccCapRead:
		return cap.PermLoad | cap.PermLoadCap
	case vm.AccCapWrite:
		return cap.PermStore | cap.PermStoreCap
	case vm.AccExec:
		return cap.PermExecute
	default:
		return 0
	}
}

// faultModeNames decode the fault-resolution mode (the same encoding
// KindFrameOwnerChange uses) into causal-segment labels.
var faultModeNames = [...]string{"mapped", "cow", "coa", "copa"}

// translate resolves va for the access, invoking the fork engine's fault
// handler (CoW / CoA / CoPA resolution) as needed.
func (p *Proc) translate(va uint64, acc vm.Access) (tmem.PFN, uint64, error) {
	pfn, off, fault := p.AS.Translate(va, acc)
	if fault == nil {
		return pfn, off, nil
	}
	return p.translateFault(va, acc, fault)
}

// translateFault is translate's fault-service loop, kept out of line. It
// serves the fault translate's attempt raised, then re-translates; a
// translation still faulting after eight services is a segfault.
func (p *Proc) translateFault(va uint64, acc vm.Access, fault *vm.Fault) (tmem.PFN, uint64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			pfn, off, f := p.AS.Translate(va, acc)
			if f == nil {
				return pfn, off, nil
			}
			fault = f
		}
		p.k.Stats.PageFaults.Inc()
		p.Acct.Faults.Inc()
		p.k.curPID = p.PID
		if p.k.Flight.On() {
			p.k.Flight.Emit(uint64(p.Task.Now()), int32(p.PID), flight.KindFault,
				uint64(fault.Kind), fault.VA, 0)
		}
		var sp obs.Span
		if obs.On() {
			p.k.Obs.Reg.Counter("vm.fault." + fault.Kind.String()).Inc()
			sp = p.k.Obs.Tracer.Begin(int(p.PID), p.Task.ID,
				"fault:"+fault.Kind.String(), "vm", uint64(p.Task.Now()))
		}
		// Taking the fault costs a trap + handler dispatch. Everything
		// from here to the handler's return is fault-service time.
		fault0 := p.Task.Now()
		// Bracket the fault-service window in the causal trace: checkpoint
		// up to the fault, then mark. The copy mode is only known after the
		// handler runs, so the window's unattributed segments are relabeled
		// to fault:<mode> at the end — nested hooks (a contended tmem
		// acquisition) keep their own site labels inside the window.
		cmark := -1
		if cs := p.k.causalSpan(p); cs != nil {
			cs.Checkpoint(fault0, p.Task.Delays())
			cmark = cs.Mark()
		}
		// The profiler defers the window's samples the same way: their
		// fault:<mode> phase frame is only known once the handler returns.
		pmark := p.k.profFaultBegin(p)
		p.Task.Advance(p.k.Machine.PageFault)
		// Snapshot the faulting page's frame before the handler runs: if
		// the resolution breaks sharing, this is the ancestor frame the
		// owner-change event points back at.
		oldPFN := tmem.NoFrame
		if pte := p.AS.Lookup(vm.VPNOf(fault.VA)); pte != nil {
			oldPFN = pte.Page.PFN
		}
		// Snapshot the address-space copy counters around the handler: the
		// deltas classify the resolution outcome (CoW copy / CoA adopt /
		// CoPA relocation) without knowing which engine ran.
		st := &p.AS.Stats
		copied0, adopted0, relocs0 := st.PagesCopied.Value(), st.PagesAdopted.Value(), st.CapsRelocated.Value()
		// Fine-grained fault path: point the allocator at the faulting CPU's
		// frame cache, and take the shared tmem lock only when that cache
		// cannot cover the fault — the split allocator's lock-free fast
		// path. A fault that resolves from the cache (the common CoW case)
		// never serializes on the allocator at all.
		tmemHeld := false
		if p.k.Machine.FineGrainedLocks {
			p.k.Mem.SetCPU(p.Task.LastCore())
			if !p.k.Mem.CacheReady(1) {
				p.k.lockWait(p, &p.k.locks.tmem)
				p.k.Mem.RefillCache()
				tmemHeld = true
			}
		}
		phase0 := p.k.memPhase
		p.k.memPhase = memmap.OriginDemand
		err := p.k.Engine.HandleFault(p.k, p, fault, acc)
		p.k.memPhase = phase0
		if tmemHeld {
			p.k.locks.tmem.Unlock(p.Task)
		}
		if err != nil {
			sp.End(uint64(p.Task.Now()), obs.A("va", fault.VA))
			p.k.profFaultEnd(p, pmark, "fault:error")
			// Double-wrap so errors.Is sees both the segfault and the
			// handler's cause (e.g. an injected tmem.ErrOutOfMemory).
			return tmem.NoFrame, 0, fmt.Errorf("%w: %w", ErrSegfault, err)
		}
		service := p.Task.Now() - fault0
		p.Acct.FaultServiceNS.Add(uint64(service))
		copied := st.PagesCopied.Value() - copied0
		adopted := st.PagesAdopted.Value() - adopted0
		relocs := st.CapsRelocated.Value() - relocs0
		if copied > 0 {
			// Fault-path copies mutate tmem under BKL protection; credit
			// the shadow meter with the resolution's serialized cost.
			p.k.lkTmem.Acquire(p.Task.Now())
			p.k.lkTmem.ObserveHold(service)
		}
		mode := uint64(0) // KindFrameOwnerChange mode: 1=CoW 2=CoA 3=CoPA
		switch {
		case relocs > 0:
			p.Acct.FaultCoPA.Inc()
			mode = 3
		case copied > 0:
			p.Acct.FaultCoW.Inc()
			mode = 1
		case adopted > 0:
			p.Acct.FaultCoA.Inc()
			mode = 2
		default:
			p.Acct.FaultMapped.Inc()
			if fault.Kind == vm.FaultNotMapped {
				// Demand map: the handler mapped one fresh frame (the
				// monolithic baseline's demand-paged heap).
				p.Acct.chargeFrames(1)
			}
		}
		p.k.profFaultEnd(p, pmark, "fault:"+faultModeNames[mode])
		if sp.Active() {
			// The fault span closes on the kernel's classification of the
			// resolution, so it names the copy mode the handler chose.
			sp.End(uint64(p.Task.Now()), obs.A("va", fault.VA),
				obs.S("mode", faultModeNames[mode]),
				obs.A("pages-copied", copied), obs.A("caps", relocs))
			if mode != 0 {
				p.k.Obs.Reg.Counter("fault.copy-relocate").Inc()
			}
		}
		if mode != 0 {
			// The resolution broke sharing: the faulting page's frame is now
			// exclusively owned by p (a fresh copy for CoW/CoPA, the adopted
			// last reference for CoA). Record who broke sharing and why.
			newPFN := oldPFN
			if pte := p.AS.Lookup(vm.VPNOf(fault.VA)); pte != nil {
				newPFN = pte.Page.PFN
			}
			if pl := p.k.Memmap; pl.On() {
				if copied > 0 && newPFN != oldPFN {
					origin := memmap.OriginCoW
					if mode == 3 {
						origin = memmap.OriginCoPA
					}
					pl.Reclassify(newPFN, origin)
				}
				pl.OwnerChange(newPFN, int32(p.PID), p.Gen)
			}
			if p.k.Flight.On() {
				old := uint64(newPFN)
				if oldPFN != tmem.NoFrame {
					old = uint64(oldPFN)
				}
				p.k.Flight.Emit(uint64(p.Task.Now()), int32(p.PID),
					flight.KindFrameOwnerChange, uint64(newPFN), mode, old)
			}
		}
		p.Acct.FaultCapsRelocated.Add(relocs)
		if copied > 0 {
			p.Acct.chargeFrames(int64(copied))
		}
		if p.k.Flight.On() {
			p.k.Flight.Emit(uint64(p.Task.Now()), int32(p.PID), flight.KindFaultDone,
				uint64(fault.Kind), copied, relocs)
		}
		if cmark >= 0 {
			if cs := p.k.causalSpan(p); cs != nil {
				cs.Checkpoint(p.Task.Now(), p.Task.Delays())
				cs.RelabelWindow(cmark, "fault:"+faultModeNames[mode])
			}
		}
	}
	return tmem.NoFrame, 0, fmt.Errorf("%w: fault loop at %#x", ErrSegfault, va)
}

// capFault is the error of an access through c that fails the CHERI
// dereference check. Accesses test c.Permits inline and call this only
// on failure.
func capFault(c cap.Capability, va, n uint64, acc vm.Access) error {
	return fmt.Errorf("%w: %v", ErrCapFault, c.CheckDeref(va, n, permForAccess(acc)))
}

// Load reads len(buf) bytes through capability c at byte offset off from
// the capability's cursor.
func (p *Proc) Load(c cap.Capability, off uint64, buf []byte) error {
	return p.rw(c, off, buf, vm.AccRead)
}

// Store writes buf through capability c at byte offset off.
func (p *Proc) Store(c cap.Capability, off uint64, buf []byte) error {
	return p.rw(c, off, buf, vm.AccWrite)
}

func (p *Proc) rw(c cap.Capability, off uint64, buf []byte, acc vm.Access) error {
	va := c.Addr() + off
	n := uint64(len(buf))
	if !c.Permits(va, n, permForAccess(acc)) {
		return capFault(c, va, n, acc)
	}
	done := uint64(0)
	for done < n {
		cur := va + done
		chunk := PageSize - vm.PageOff(cur)
		if chunk > n-done {
			chunk = n - done
		}
		pfn, poff, err := p.translate(cur, acc)
		if err != nil {
			return err
		}
		if acc == vm.AccRead {
			if err := p.k.Mem.ReadBytes(pfn, poff, buf[done:done+chunk]); err != nil {
				return err
			}
		} else {
			if err := p.k.Mem.WriteBytes(pfn, poff, buf[done:done+chunk]); err != nil {
				return err
			}
		}
		done += chunk
	}
	return nil
}

// LoadU64 reads a 64-bit little-endian value.
func (p *Proc) LoadU64(c cap.Capability, off uint64) (uint64, error) {
	var b [8]byte
	if err := p.Load(c, off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// StoreU64 writes a 64-bit little-endian value.
func (p *Proc) StoreU64(c cap.Capability, off uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.Store(c, off, b[:])
}

// LoadCap loads a capability through c at offset off. On CoPA pages this
// is the access that triggers the copy-and-relocate fault (§3.8).
func (p *Proc) LoadCap(c cap.Capability, off uint64) (cap.Capability, error) {
	va := c.Addr() + off
	if !c.Permits(va, cap.GranuleSize, permForAccess(vm.AccCapRead)) {
		return cap.Null(), capFault(c, va, cap.GranuleSize, vm.AccCapRead)
	}
	pfn, poff, err := p.translate(va, vm.AccCapRead)
	if err != nil {
		return cap.Null(), err
	}
	return p.k.Mem.LoadCap(pfn, poff)
}

// StoreCap stores capability v through c at offset off.
func (p *Proc) StoreCap(c cap.Capability, off uint64, v cap.Capability) error {
	va := c.Addr() + off
	if !c.Permits(va, cap.GranuleSize, permForAccess(vm.AccCapWrite)) {
		return capFault(c, va, cap.GranuleSize, vm.AccCapWrite)
	}
	pfn, poff, err := p.translate(va, vm.AccCapWrite)
	if err != nil {
		return err
	}
	return p.k.Mem.StoreCap(pfn, poff, v)
}

// FetchCode models instruction fetch at the PCC cursor (used by tests to
// demonstrate execute permissions).
func (p *Proc) FetchCode(off uint64) error {
	va := p.PCC.Addr() + off
	if !p.PCC.Permits(va, 4, permForAccess(vm.AccExec)) {
		return capFault(p.PCC, va, 4, vm.AccExec)
	}
	_, _, err := p.translate(va, vm.AccExec)
	return err
}

// Compute books d nanoseconds of CPU work for the process.
func (p *Proc) Compute(d sim.Time) { p.Task.Work(d) }

// Now returns the process's virtual clock.
func (p *Proc) Now() sim.Time { return p.Task.Now() }

// SegCap derives a fresh capability over one of the process's segments.
func (p *Proc) SegCap(s Segment) cap.Capability {
	switch s {
	case SegStack:
		return p.StackCap
	case SegHeap:
		return p.HeapCap
	case SegGOT:
		return p.GOTCap
	case SegAllocMeta:
		return p.MetaCap
	case SegData:
		return p.DataCap
	case SegTLS:
		return p.TLSCap
	default:
		return deriveSeg(p.DDC, p, s)
	}
}

// GOTLoad reads GOT entry i the way PIC code does: a capability load from
// the table. After fork this must observe a child-region target.
func (p *Proc) GOTLoad(i int) (cap.Capability, error) {
	return p.LoadCap(p.GOTCap, uint64(i)*cap.GranuleSize)
}
