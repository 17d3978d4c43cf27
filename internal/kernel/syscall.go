package kernel

import (
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
)

// enter charges the user→kernel transition and the isolation-dependent
// checks, then serializes on the big kernel lock where the machine model
// requires it (§4.4, §4.5). no identifies the syscall for dispatch
// accounting, per-process counters, and tracing. bufBytes is the total
// size of user buffers the call passes by reference; under IsolationFull
// they are copied to kernel memory before use (TOCTTOU protection, §4.4
// principle 4).
func (k *Kernel) enter(p *Proc, no SysNo, bufBytes int) {
	t := p.Task
	k.Stats.Syscalls.Inc()
	p.Acct.Syscalls[no].Inc()
	p.sysNo = no
	p.sysEnter = t.Now()
	p.inSys = true
	k.curPID = p.PID
	if k.Flight.On() {
		k.Flight.Emit(uint64(t.Now()), int32(p.PID), flight.KindSyscall, uint64(no), 0, 0)
	}
	if obs.On() {
		name := no.String()
		k.Obs.Reg.Counter("syscall." + name).Inc()
		p.sysSpan = k.Obs.Tracer.Begin(int(p.PID), p.Task.ID, name, "syscall", uint64(t.Now()))
	}
	// Pending kills and signals are delivered at kernel entry.
	k.checkKilled(p)
	k.deliverSignals(p)
	if k.Machine.TrapSyscalls {
		// Monolithic path: hardware trap into the kernel.
		t.Advance(k.Machine.SyscallEnter)
	} else {
		// SASOS path: invoke the sealed kernel entry capability. The
		// sentry check is the real mechanism, not just a cost (§4.4).
		if _, err := p.SyscallCap.InvokeSentry(); err != nil {
			panic("kernel: syscall without valid sentry: " + err.Error())
		}
		t.Advance(k.Machine.SyscallEnter)
	}
	if k.Iso >= IsolationFault {
		t.Advance(k.Machine.ArgValidate)
	}
	if k.Iso == IsolationFull && bufBytes > 0 {
		// Bounce-buffer setup plus copy-in/copy-out at memcpy bandwidth.
		// The copy is CPU work, so it occupies a core.
		t.Book(k.Machine.TocttouFixed + sim.Time(bufBytes/k.Machine.TocttouBytesPerNs) + 1)
	}
	switch {
	case k.Machine.BigKernelLock:
		// Whole-kernel serialization: every syscall takes the BKL (§4.5).
		k.lockWait(p, &k.locks.global)
	case k.Machine.FineGrainedLocks:
		// Split hierarchy: the baseline footprint is only the caller's own
		// μprocess lock — uncontended unless another process is poking this
		// one (signal, kill, exit reparenting). Syscalls that touch more
		// state bracket the wider locks themselves, in rank order.
		k.lockWait(p, &p.lk)
	default:
		t.Sync()
	}
	t.Advance(k.Machine.SyscallBase)
}

// lockWait acquires l for p, attributing any lock-wait delta the
// acquisition adds: waits on the global serializing lock (BKL or residual)
// land in Acct.BKLWaitNS, and any contended acquisition emits a
// KindLockWait flight event tagged with the in-flight syscall. On the BKL
// itself the delta is exact — it is the only lock a BKL-machine μprocess
// ever takes.
func (k *Kernel) lockWait(p *Proc, l *sim.VLock) {
	t := p.Task
	w0 := t.Delay(sim.DelayLockWait)
	l.Lock(t)
	w := t.Delay(sim.DelayLockWait) - w0
	if w == 0 {
		return
	}
	if l == &k.locks.global {
		p.Acct.BKLWaitNS.Add(uint64(w))
	}
	if k.Flight.On() {
		k.Flight.Emit(uint64(t.Now()), int32(p.PID), flight.KindLockWait,
			uint64(w), uint64(p.sysNo), 0)
	}
	if s := k.causalSpan(p); s != nil {
		// Flush the wait into the trace under the contended site's name
		// before another lock's wait can blur into the same bucket.
		s.CheckpointAs(sim.DelayLockWait, "lock:"+causalLockSite(l), t.Now(), t.Delays())
	}
	k.profLockWait(p, l, w)
}

// chargeSwitch bills one scheduler context switch to p: register state,
// run-queue work, and — on multi-address-space machines — the page-table
// switch with its TLB/cache maintenance (§2.2). Switches occupy the CPU,
// so they are booked on a core rather than merely advancing the clock.
func (k *Kernel) chargeSwitch(p *Proc) {
	if k.Flight.On() {
		k.Flight.Emit(uint64(p.Task.Now()), int32(p.PID), flight.KindCtxSwitch,
			uint64(k.Machine.CtxSwitch), 0, 0)
	}
	if obs.On() {
		k.Obs.Tracer.Complete(int(p.PID), p.Task.ID, "ctx-switch", "sched",
			uint64(p.Task.Now()), uint64(k.Machine.CtxSwitch))
	}
	p.Task.Book(k.Machine.CtxSwitch)
	k.Stats.CtxSwitches.Inc()
}

// leave charges the kernel→user transition and releases the syscall's lock
// footprint: the BKL on BKL machines, or — on split machines — every strict
// lock the task still holds, innermost first. ReleaseAll doubles as a leak
// guard for early error returns and is idempotent, which the self-kill path
// (explicit leave, then a second via the deferred one) relies on; the legacy
// BKL Unlock tolerates the same double release, as it always has.
func (k *Kernel) leave(p *Proc) {
	if k.Machine.BigKernelLock {
		k.locks.global.Unlock(p.Task)
	} else if k.Machine.FineGrainedLocks {
		p.Task.ReleaseAll()
	}
	p.Task.Advance(k.Machine.SyscallExit)
	if k.Flight.On() {
		k.Flight.Emit(uint64(p.Task.Now()), int32(p.PID), flight.KindSysRet,
			uint64(p.sysNo), uint64(p.Task.Now()-p.sysEnter), 0)
	}
	if p.sysSpan.Active() {
		p.sysSpan.End(uint64(p.Task.Now()))
		p.sysSpan = obs.Span{}
		if obs.On() {
			k.Obs.Reg.Histogram("syscall.latency").Observe(uint64(p.Task.Now() - p.sysEnter))
		}
	}
	p.inSys = false
}

// Getpid returns the caller's process ID.
func (k *Kernel) Getpid(p *Proc) PID {
	k.enter(p, SysGetpid, 0)
	defer k.leave(p)
	return p.PID
}

// Yield gives up the CPU.
func (k *Kernel) Yield(p *Proc) {
	k.enter(p, SysYield, 0)
	k.leave(p)
	p.Task.Sync()
}

// Exit terminates the calling process with the given status. It does not
// return: the entry function unwinds via panic, recovered by the kernel.
func (k *Kernel) Exit(p *Proc, status int) {
	k.enter(p, SysExit, 0)
	k.leave(p)
	panic(exitPanic{status})
}

// Fork duplicates the calling process. childEntry runs as the child's
// continuation: Go cannot return twice from one call, so the child's
// post-fork control flow is expressed as a closure. The child observes
// only its own Proc — whose capability register file the fork engine has
// relocated (§3.5 step 2) — so transparency at the memory level is
// preserved.
func (k *Kernel) Fork(p *Proc, childEntry func(*Proc)) (PID, error) {
	k.enter(p, SysFork, 0)
	defer k.leave(p)
	if err := k.chaosErr("fork"); err != nil {
		return 0, err
	}
	k.Stats.Forks.Inc()
	p.Forked++
	p.Acct.Forks.Inc()
	forkStart := p.Task.Now()
	if k.Flight.On() {
		k.Flight.Emit(uint64(forkStart), int32(p.PID), flight.KindForkStart, 0, 0, 0)
	}

	child := &Proc{
		k:          k,
		Spec:       p.Spec,
		Layout:     p.Layout,
		Parent:     p,
		Gen:        p.Gen + 1,
		OriginBase: p.Region.Base,
		BrkPages:   p.BrkPages,
	}
	fg := k.Machine.FineGrainedLocks
	if fg {
		// PID allocation is one of the few genuinely global operations left
		// after the split: a narrow residual-lock bracket replaces the BKL.
		k.lockWait(p, &k.locks.global)
		child.PID = k.allocPID()
		k.locks.global.Unlock(p.Task)
		k.initProcLocks(child)
		// Hold the child's μprocess lock for the rest of the fork — parent
		// then child is the canonical ascending-PID pair order — so nothing
		// can poke the half-built child; leave releases it when fork
		// returns, at which point the child may run.
		k.lockWait(p, &child.lk)
		// The table shard is taken now, before the engine builds the child's
		// image, and held until the insert below. Parking between copy and
		// insert would expose a torn state — child mappings live in the
		// shared address space with their owner not yet in the table — to
		// any concurrently running audit or table walker. Every park point
		// must sit at a consistent kernel state; that contract is what makes
		// lock-free observers (and sleeps that release locks) legal.
		k.lockWait(p, k.shardFor(child.PID))
		// Route the engine's eager copies to the forking CPU's frame cache.
		k.Mem.SetCPU(p.Task.LastCore())
	} else {
		child.PID = k.allocPID()
		k.initProcLocks(child)
	}
	// The engine copies the parent's image into the page table the
	// kernel gives the child: the shared one, or a fresh one per process.
	child.AS = k.addressSpaceFor(child)
	// While the engine runs, frames it allocates are eager fork copies
	// attributed to the child — which is not yet in the process table, so
	// the provenance plane resolves its region through forkChild.
	k.forkChild = child
	phase0 := k.memPhase
	k.memPhase = memmap.OriginEager
	stats, err := k.Engine.Fork(k, p, child)
	k.memPhase = phase0
	if err != nil {
		k.abortFork(p, child)
		k.forkChild = nil
		return 0, err
	}
	k.forkChild = nil
	// Kernel-side duplication common to every engine: descriptor table and
	// task struct (§4.5 "per-process kernel state").
	child.FDs = p.FDs.Dup()
	stats.FixupTime = sim.Time(child.FDs.Len())*k.Machine.FDDup + k.Machine.ForkFixed
	phases := stats.phases()
	stats.Latency = 0
	for _, ph := range phases {
		stats.Latency += ph.d
	}
	if k.Locks != nil && !fg {
		// Shadow-lock accounting: fork walks the FD table and tmem under
		// BKL protection; credit those sections' virtual cost so lockstat
		// shows what a split lock would have to serialize. (Fine-grained
		// machines take the real locks below instead.)
		now := p.Task.Now()
		k.lkFD.Acquire(now)
		k.lkFD.ObserveHold(stats.FixupTime)
		k.lkTmem.Acquire(now)
		k.lkTmem.ObserveHold(stats.EagerCopyTime)
	}

	if fg {
		// Shard already held since before the engine copy (see above).
		k.procMu.Lock()
		k.procs[child.PID] = child
		k.procMu.Unlock()
		k.shardFor(child.PID).Unlock(p.Task)
	} else {
		k.lkProc.Acquire(p.Task.Now())
		k.procMu.Lock()
		k.procs[child.PID] = child
		k.procMu.Unlock()
	}
	p.children = append(p.children, child)

	// Fork cost attribution (§5.1): bytes physically copied and
	// capabilities relocated are charged to the forking parent; the
	// duplicated frames themselves are owned by the child.
	copiedPages := stats.PagesCopied + stats.ProactivePages
	p.Acct.ForkBytesCopied.Add(uint64(copiedPages) * PageSize)
	p.Acct.ForkCapsRelocated.Add(uint64(stats.CapsRelocated))
	child.Acct.chargeFrames(int64(copiedPages))
	child.Acct.noteBrk(child.BrkPages)
	if k.Memmap.On() {
		// The fork redrew both sides' sharing picture; refresh their smaps
		// gauges so live /procs views show the post-fork footprint.
		k.refreshMemStats(p)
		k.refreshMemStats(child)
	}

	if k.Flight.On() {
		k.Flight.Emit(uint64(forkStart+stats.Latency), int32(p.PID), flight.KindForkDone,
			uint64(child.PID), uint64(copiedPages), uint64(stats.CapsRelocated))
	}
	if obs.On() {
		// The fork span, then its phases laid end to end inside it and
		// one latency histogram per phase (exported as fork_phase_* on
		// /metrics). Zero-length phases get no span.
		tr, reg := k.Obs.Tracer, k.Obs.Reg
		pid, tid := int(p.PID), p.Task.ID
		tr.Complete(pid, tid, "fork:"+k.Engine.Name(), "fork",
			uint64(forkStart), uint64(stats.Latency),
			obs.A("child-pid", uint64(child.PID)),
			obs.A("ptes-copied", uint64(stats.PTEsCopied)),
			obs.A("pages-copied", uint64(stats.PagesCopied)),
			obs.A("proactive-pages", uint64(stats.ProactivePages)),
			obs.A("caps-relocated", uint64(stats.CapsRelocated)))
		reg.Histogram("fork.latency." + k.Engine.Name()).Observe(uint64(stats.Latency))
		at := uint64(forkStart)
		for _, ph := range phases {
			reg.Histogram(ph.hist).Observe(uint64(ph.d))
			if ph.d > 0 {
				tr.Complete(pid, tid, ph.name, "fork", at, uint64(ph.d))
				at += uint64(ph.d)
			}
		}
	}

	// The fork call's latency is charged to the parent; the child begins
	// at the moment fork completes, exactly like the paper's latency
	// metric ("time needed for the fork call to complete", §5.1). On split
	// machines the charge is bracketed by the locks that own each phase —
	// the memory-side work (every phase before fixup) under the tmem
	// allocator lock, the fixup (descriptor duplication and the fixed
	// cost) under the parent's FD-table lock — so lockstat hold times show
	// what each subsystem actually serializes. The total advanced is
	// identical.
	if fg {
		k.lockWait(p, &k.locks.tmem)
		k.phasedAdvance(p, phases[:len(phases)-1])
		k.locks.tmem.Unlock(p.Task)
		k.lockWait(p, &p.fdlk)
		k.phasedAdvance(p, phases[len(phases)-1:])
		p.fdlk.Unlock(p.Task)
	} else {
		k.phasedAdvance(p, phases[:])
	}
	p.LastFork = stats
	k.startProc(child, p.Task.Now(), childEntry)
	k.causalFork(p, child, p.Task.Now())
	return child.PID, nil
}

// phasedAdvance charges a fork's phases to p in order as off-core
// latency, one Advance per nonzero phase, each under its fork:<phase>
// profiler label. Consecutive Advances are arithmetically identical to
// one combined Advance — no scheduling point sits between them — so the
// split cannot move the simulated timeline; it only lets the profiler
// attribute each phase when it is armed.
func (k *Kernel) phasedAdvance(p *Proc, phases []forkPhase) {
	for _, ph := range phases {
		if ph.d == 0 {
			continue
		}
		p.profPhase = ph.label
		p.Task.Advance(ph.d)
	}
	p.profPhase = ""
}

// abortFork unwinds a half-constructed child after the fork engine failed
// partway (e.g. frame exhaustion mid-copy): every page the engine managed
// to map is unmapped — dropping references so shared frames return to the
// parent and fresh copies are freed — and an unused single-AS region goes
// back to the free list. A failed fork must leak neither frames nor
// address space; the invariant checker audits exactly this under injected
// allocation exhaustion.
func (k *Kernel) abortFork(p, child *Proc) {
	fg := k.Machine.FineGrainedLocks
	if child.AS != nil && child.Region.Size > 0 {
		// The unmap runs without the allocator lock even on split machines:
		// parking here would leave the half-built child's mappings visible
		// with no owner anywhere (it never reached the process table), a torn
		// state a concurrent audit would flag. The teardown is host-atomic,
		// and the freed frames return through the forking CPU's cache, which
		// needs no lock.
		if err := child.AS.UnmapRange(child.Region.Base, child.Region.Size); err != nil {
			panic("kernel: fork abort unmap: " + err.Error())
		}
	}
	if k.Machine.SingleAddressSpace && child.Region.Size > 0 && child.Region.Base != p.Region.Base {
		// Post-unmap the state is consistent again (the region is merely
		// still reserved), so the residual-lock park is safe.
		if fg {
			k.lockWait(p, &k.locks.global)
		}
		k.Regions.release(child.Region)
		if fg {
			k.locks.global.Unlock(p.Task)
		}
	}
	// The child never existed: no capability can reference its region, so
	// the parent's fork count (which gates region reuse at exit) rolls back.
	p.Forked--
}

// Wait blocks until one child has exited, reaps it, and returns its PID
// and exit status.
func (k *Kernel) Wait(p *Proc) (PID, int, error) {
	k.enter(p, SysWait, 0)
	defer k.leave(p)
	if err := k.chaosErr("wait"); err != nil {
		return 0, 0, err
	}
	for {
		if len(p.children) == 0 {
			return 0, 0, ErrNoChildren
		}
		for i, c := range p.children {
			if c.exited {
				p.children = append(p.children[:i], p.children[i+1:]...)
				k.reap(c, p)
				return c.PID, c.exitStatus, nil
			}
		}
		p.Acct.BlockChildNS.Add(uint64(blockAccounted(p, "block:child", func() {
			p.childExit.Wait(p.Task)
		})))
	}
}

// fdGet, fdInstall and fdClose are the descriptor-table access paths for
// syscalls: on fine-grained machines they bracket the owning process's
// FD-table lock (rank fdtable, above the μprocess lock enter already
// holds); on BKL machines they are plain table operations under the BKL.
// The brackets are narrow — lookup or slot assignment only — so the
// "fdtable" lockstat row measures real table serialization, not I/O.
func (k *Kernel) fdGet(p *Proc, fd int) (*OpenFile, error) {
	if !k.Machine.FineGrainedLocks {
		return p.FDs.Get(fd)
	}
	k.lockWait(p, &p.fdlk)
	of, err := p.FDs.Get(fd)
	p.fdlk.Unlock(p.Task)
	return of, err
}

func (k *Kernel) fdInstall(p *Proc, of *OpenFile) int {
	if !k.Machine.FineGrainedLocks {
		return p.FDs.Install(of)
	}
	k.lockWait(p, &p.fdlk)
	fd := p.FDs.Install(of)
	p.fdlk.Unlock(p.Task)
	return fd
}

func (k *Kernel) fdClose(p *Proc, fd int) error {
	if !k.Machine.FineGrainedLocks {
		return p.FDs.Close(k, p, fd)
	}
	k.lockWait(p, &p.fdlk)
	err := p.FDs.Close(k, p, fd)
	p.fdlk.Unlock(p.Task)
	return err
}

// Open opens (or with create, creates) a ram-disk file.
func (k *Kernel) Open(p *Proc, name string, create bool) (int, error) {
	k.enter(p, SysOpen, len(name))
	defer k.leave(p)
	if err := k.chaosErr("open"); err != nil {
		return -1, err
	}
	ino, ok := k.vfs.Lookup(name)
	if !ok {
		if !create {
			return -1, fmt.Errorf("%w: %s", ErrNoEnt, name)
		}
		ino = k.vfs.Create(name)
	} else if create {
		ino.Data = nil // truncate
	}
	return k.fdInstall(p, &OpenFile{File: &regularFile{ino: ino}}), nil
}

// Close closes a descriptor.
func (k *Kernel) Close(p *Proc, fd int) error {
	k.enter(p, SysClose, 0)
	defer k.leave(p)
	return k.fdClose(p, fd)
}

// Write writes buf to fd. The data crosses the user/kernel boundary, so
// under IsolationFull it is TOCTTOU-copied first (cost charged by enter).
func (k *Kernel) Write(p *Proc, fd int, buf []byte) (int, error) {
	k.enter(p, SysWrite, len(buf))
	defer k.leave(p)
	if err := k.chaosErr("write"); err != nil {
		return 0, err
	}
	of, err := k.fdGet(p, fd)
	if err != nil {
		return 0, err
	}
	if rf, ok := of.File.(*regularFile); ok {
		n := rf.writeAt(k, p, of.Offset, buf)
		of.Offset += uint64(n)
		return n, nil
	}
	return of.File.Write(k, p, buf)
}

// Read reads up to len(buf) bytes from fd.
func (k *Kernel) Read(p *Proc, fd int, buf []byte) (int, error) {
	k.enter(p, SysRead, len(buf))
	defer k.leave(p)
	if err := k.chaosErr("read"); err != nil {
		return 0, err
	}
	of, err := k.fdGet(p, fd)
	if err != nil {
		return 0, err
	}
	if rf, ok := of.File.(*regularFile); ok {
		n := rf.readAt(k, p, of.Offset, buf)
		of.Offset += uint64(n)
		return n, nil
	}
	return of.File.Read(k, p, buf)
}

// WriteVM writes n bytes from user memory (through capability c) to fd:
// the common write(fd, ptr, n) shape. The kernel performs the copy-in
// itself, so the data actually flows through simulated memory.
func (k *Kernel) WriteVM(p *Proc, fd int, c cap.Capability, off, n uint64) (int, error) {
	buf := make([]byte, n)
	if err := p.Load(c, off, buf); err != nil {
		return 0, err
	}
	return k.Write(p, fd, buf)
}

// ReadVM reads up to n bytes from fd into user memory at capability c.
func (k *Kernel) ReadVM(p *Proc, fd int, c cap.Capability, off, n uint64) (int, error) {
	buf := make([]byte, n)
	got, err := k.Read(p, fd, buf)
	if err != nil {
		return 0, err
	}
	if got > 0 {
		if err := p.Store(c, off, buf[:got]); err != nil {
			return 0, err
		}
	}
	return got, nil
}

// Fsync flushes a file to stable storage: the fixed finalisation cost of
// a snapshot (temp-file rename, metadata flush).
func (k *Kernel) Fsync(p *Proc, fd int) error {
	k.enter(p, SysFsync, 0)
	defer k.leave(p)
	if _, err := k.fdGet(p, fd); err != nil {
		return err
	}
	p.Task.Advance(k.Machine.FSSync)
	return nil
}

// Pipe creates a pipe and returns (readFD, writeFD).
func (k *Kernel) Pipe(p *Proc) (int, int, error) {
	k.enter(p, SysPipe, 0)
	defer k.leave(p)
	if err := k.chaosErr("pipe"); err != nil {
		return -1, -1, err
	}
	r, w := NewPipe()
	rfd := k.fdInstall(p, &OpenFile{File: r})
	wfd := k.fdInstall(p, &OpenFile{File: w})
	return rfd, wfd, nil
}

// Listen creates a listening socket and returns its descriptor plus the
// listener handle (the workload driver uses the handle to inject
// connections).
func (k *Kernel) Listen(p *Proc) (int, *Listener) {
	k.enter(p, SysListen, 0)
	defer k.leave(p)
	l := NewListener()
	fd := k.fdInstall(p, &OpenFile{File: l})
	return fd, l
}

// Accept blocks until a connection arrives on the listening descriptor.
func (k *Kernel) Accept(p *Proc, fd int) (int, error) {
	k.enter(p, SysAccept, 0)
	defer k.leave(p)
	of, err := k.fdGet(p, fd)
	if err != nil {
		return -1, err
	}
	l, ok := of.File.(*Listener)
	if !ok {
		return -1, ErrNotSocket
	}
	conn, err := l.Accept(p)
	if err != nil {
		return -1, err
	}
	return k.fdInstall(p, &OpenFile{File: conn}), nil
}

// Sbrk grows the heap watermark by n pages. On the statically heaped
// μprocess this only moves a bound; the monolithic baseline demand-pages,
// so the accounting matters there.
func (k *Kernel) Sbrk(p *Proc, pages int) error {
	k.enter(p, SysSbrk, 0)
	defer k.leave(p)
	if err := k.chaosErr("sbrk"); err != nil {
		return err
	}
	if p.BrkPages+pages > p.Layout.Pages[SegHeap] {
		return fmt.Errorf("kernel: sbrk beyond static heap (%d + %d > %d)",
			p.BrkPages, pages, p.Layout.Pages[SegHeap])
	}
	p.BrkPages += pages
	p.Acct.noteBrk(p.BrkPages)
	return nil
}
