// Package kernel implements the single-address-space operating system
// μFork is built into, plus the machinery shared with the multi-address-
// space baselines.
//
// The kernel is a library OS in the Unikraft mould (§4): μprocesses and the
// kernel share one virtual address space and one privilege level, isolated
// by CHERI capabilities; system calls enter through sealed capability
// jumps instead of traps; SMP is serialized by a big kernel lock. The same
// kernel code, configured with a different model.Machine and ForkEngine,
// becomes the CheriBSD-like monolithic baseline (per-process address
// spaces, trap syscalls) or the Nephele-like VM-cloning baseline.
package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ufork/internal/cap"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// IsolationLevel selects how much of the POSIX trust model the kernel
// enforces (§3.6, §4.4 — design requirement R4).
type IsolationLevel int

const (
	// IsolationNone trusts the entire system: capabilities span all memory
	// and the kernel skips argument validation and TOCTTOU copies. For
	// fully trusted deployments (e.g. Redis snapshotting).
	IsolationNone IsolationLevel = iota
	// IsolationFault provides non-adversarial fault isolation: μprocess
	// capabilities are bounded to their region and basic kernel checks run,
	// but TOCTTOU copy-in/out is skipped. For trusted-but-buggy software
	// (e.g. Nginx workers).
	IsolationFault
	// IsolationFull is the adversarial POSIX model: bounded capabilities,
	// argument validation, and TOCTTOU copies of all user buffers. For
	// privilege separation (e.g. qmail, OpenSSH).
	IsolationFull
)

func (l IsolationLevel) String() string {
	switch l {
	case IsolationNone:
		return "none"
	case IsolationFault:
		return "fault"
	case IsolationFull:
		return "full"
	default:
		return "unknown"
	}
}

// Errors returned by kernel operations.
var (
	ErrNoChildren = errors.New("kernel: no children to wait for")
	ErrBadFD      = errors.New("kernel: bad file descriptor")
	ErrNoEnt      = errors.New("kernel: no such file")
	ErrExist      = errors.New("kernel: file exists")
	ErrSegfault   = errors.New("kernel: segmentation fault")
	ErrCapFault   = errors.New("kernel: capability fault")
	ErrNoProc     = errors.New("kernel: no such process")
	ErrPipeClosed = errors.New("kernel: pipe closed")
	ErrNotSocket  = errors.New("kernel: not a socket")
	// ErrInterrupted is the EINTR analogue chaos testing injects at syscall
	// entry: the call performed no work and may be retried.
	ErrInterrupted = errors.New("kernel: interrupted system call")
)

// PID identifies a μprocess.
type PID int

// ForkStats reports the work a fork performed; the benchmark harness uses
// it for per-experiment accounting.
//
// The six phase fields are the only record of a fork's cost. Engines fill
// the phases that apply to them and the kernel fills FixupTime (FD
// duplication + fixed fork cost); the kernel then sets Latency to the
// phase sum, charges the parent phase by phase, and derives every export
// — tracer spans, fork.phase.* histograms, profiler labels — from them.
type ForkStats struct {
	Latency        sim.Time // virtual time the fork call consumed: the phase sum
	PTEsCopied     int
	PagesCopied    int // frames physically duplicated during the fork call
	CapsRelocated  int // capabilities rewritten during the fork call
	ProactivePages int // GOT + allocator-metadata pages copied eagerly

	ReserveTime   sim.Time // region reservation / address-space creation
	PTECopyTime   sim.Time // bulk page-table-entry copy
	EagerCopyTime sim.Time // frames physically copied during the call
	ScanTime      sim.Time // tag-plane scans + capability relocation
	RegTime       sim.Time // capability register-file relocation
	FixupTime     sim.Time // kernel-side FD dup + fixed cost
}

// forkPhase is one slice of a fork's cost. name is its tracer span, label
// its profiler phase frame and hist its registry histogram.
type forkPhase struct {
	name, label, hist string
	d                 sim.Time
}

// phases lists s's cost in charge order, kernel-side fixup last. It is
// the one table fork's exports walk.
func (s *ForkStats) phases() [6]forkPhase {
	return [6]forkPhase{
		{"reserve", "fork:reserve", "fork.phase.reserve", s.ReserveTime},
		{"ptecopy", "fork:ptecopy", "fork.phase.ptecopy", s.PTECopyTime},
		{"eagercopy", "fork:eagercopy", "fork.phase.eagercopy", s.EagerCopyTime},
		{"scan", "fork:scan", "fork.phase.scan", s.ScanTime},
		{"reg", "fork:reg", "fork.phase.reg", s.RegTime},
		{"fixup", "fork:fixup", "fork.phase.fixup", s.FixupTime},
	}
}

// ForkEngine is the strategy that implements fork: μFork (internal/core),
// classic CoW in a private address space (internal/baseline/posix), or
// whole-VM cloning (internal/baseline/vmclone).
type ForkEngine interface {
	// Name identifies the engine for reports.
	Name() string
	// Fork duplicates parent into a newly allocated child Proc. The child's
	// address space, region, registers, and pending-copy state must be
	// fully initialised; the kernel handles PID assignment, FD duplication
	// and task creation. Fork returns its work counts and fills the phase
	// fields it incurred; it leaves Latency and FixupTime to the kernel,
	// which charges the phase sum to the parent.
	Fork(k *Kernel, parent, child *Proc) (ForkStats, error)
	// HandleFault resolves a page fault raised by proc p (CoW / CoA / CoPA
	// resolution). It returns an error when the fault is a genuine
	// violation (segfault).
	HandleFault(k *Kernel, p *Proc, f *vm.Fault, acc vm.Access) error
	// ChildStart runs as the first act of a forked child's task; the
	// monolithic baseline uses it to model child-side runtime fixups
	// (dynamic linker relocations, allocator arena bookkeeping).
	ChildStart(k *Kernel, child *Proc)
}

// Region is a contiguous virtual address range assigned to one μprocess
// (Fig. 1) or to the kernel.
type Region struct {
	Base uint64
	Size uint64
	Name string
}

// Top returns the exclusive end of the region.
func (r Region) Top() uint64 { return r.Base + r.Size }

// Contains reports whether va falls inside the region.
func (r Region) Contains(va uint64) bool { return va >= r.Base && va < r.Top() }

// regionAllocator hands out non-overlapping regions of the shared virtual
// address space. Virtual space is 64-bit and the simulations are short, so
// it is a pure bump allocator; records are retained so relocation can map
// any historical address back to its region (§4.2).
//
// With ASLR enabled (§3.7: "ASLR can be implemented by randomizing the
// base offset of the contiguous memory area dedicated to each μprocess"),
// each reservation is displaced by a random page-aligned offset inside an
// extra slack window, so region bases are unpredictable while regions stay
// contiguous and disjoint.
type regionAllocator struct {
	next    uint64
	regions []Region
	aslr    *rand.Rand
	// free holds released regions by size — the size-class reuse the
	// paper sketches as future work for fragmentation (§6). A region is
	// only released when no capability anywhere can still reference it
	// (see Kernel.terminate).
	free map[uint64][]Region
	// Reused counts reservations satisfied from the free list.
	Reused uint64
}

const (
	regionAlign = 1 << 28 // 256 MiB region granularity
	aslrWindow  = 1 << 24 // 16 MiB of base-offset entropy per region
	// aslrGrain keeps randomized bases aligned strongly enough that every
	// segment capability stays representable in the compressed encoding
	// (the largest segment alignment for 256 MiB regions is 16 KiB).
	aslrGrain = 1 << 16
)

func (ra *regionAllocator) reserve(size uint64, name string) Region {
	// Size-class reuse first: forked children all share their parent's
	// region size, so exact-size classes hit almost always.
	if rs := ra.free[size]; len(rs) > 0 {
		r := rs[len(rs)-1]
		ra.free[size] = rs[:len(rs)-1]
		r.Name = name
		ra.Reused++
		return r
	}
	slack := uint64(0)
	if ra.aslr != nil {
		slack = uint64(ra.aslr.Intn(aslrWindow/aslrGrain)) * aslrGrain
	}
	sz := (size + slack + regionAlign - 1) &^ uint64(regionAlign-1)
	r := Region{Base: ra.next + slack, Size: sz - slack, Name: name}
	ra.next += sz
	ra.regions = append(ra.regions, r)
	return r
}

// release returns a region to its size class for reuse.
func (ra *regionAllocator) release(r Region) {
	if ra.free == nil {
		ra.free = make(map[uint64][]Region)
	}
	ra.free[r.Size] = append(ra.free[r.Size], r)
}

// VASpaceUsed reports how much of the virtual address space the allocator
// has consumed (the §6 fragmentation metric).
func (ra *regionAllocator) VASpaceUsed() uint64 { return ra.next }

// find returns the region containing va, if any.
func (ra *regionAllocator) find(va uint64) (Region, bool) {
	i := sort.Search(len(ra.regions), func(i int) bool { return ra.regions[i].Top() > va })
	if i < len(ra.regions) && ra.regions[i].Contains(va) {
		return ra.regions[i], true
	}
	return Region{}, false
}

// Stats aggregates kernel-wide counters for the harness. The counters are
// atomic (obs.Counter) so `go test -race` passes even when several
// simulated kernels are driven from concurrent host goroutines, and so a
// Snapshot/Reset pair cannot tear.
type Stats struct {
	Forks       obs.Counter
	Syscalls    obs.Counter
	PageFaults  obs.Counter
	CtxSwitches obs.Counter
}

// Snapshot returns the counters as a name→value map (bench JSON emission).
func (s *Stats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"forks":        s.Forks.Value(),
		"syscalls":     s.Syscalls.Value(),
		"page-faults":  s.PageFaults.Value(),
		"ctx-switches": s.CtxSwitches.Value(),
	}
}

// Reset zeroes every counter so counts cannot leak between benchmark
// iterations that reuse a kernel.
func (s *Stats) Reset() {
	s.Forks.Reset()
	s.Syscalls.Reset()
	s.PageFaults.Reset()
	s.CtxSwitches.Reset()
}

// Kernel is one simulated operating system instance.
type Kernel struct {
	Eng     *sim.Engine
	Machine *model.Machine
	Mem     *tmem.Memory
	Engine  ForkEngine
	Iso     IsolationLevel

	// SharedAS is the single address space (single-address-space machines
	// only); multi-AS machines give each Proc its own.
	SharedAS *vm.AddressSpace

	// Regions allocates μprocess regions within the shared address space.
	Regions regionAllocator

	// KernelRegion hosts the kernel image in the shared address space.
	KernelRegion Region

	// locks is the kernel lock plane. On BigKernelLock machines every
	// syscall serializes on locks.global — the §4.5 BKL, kept as a legacy
	// (zero-value) VLock so its virtual-exclusion semantics and every
	// pre-split golden are byte-identical. On FineGrainedLocks machines
	// the footprint splits: each μprocess carries its own lock and FD-table
	// lock (Proc.lk / Proc.fdlk), the proc table is sharded, the tmem
	// allocator has its own lock with per-CPU frame caches, and
	// locks.global shrinks to the narrow residual lock covering the few
	// genuinely global operations (PID allocation, region release/reuse,
	// exit reparenting). See DESIGN.md "Kernel locking".
	locks lockPlane

	// sentry is the sealed kernel entry capability handed to μprocesses
	// (§4.4, principle 1). There is no other way into the kernel.
	sentry cap.Capability

	vfs *VFS
	shm shmRegistry
	// procs is the live process table. procMu guards it because the
	// telemetry server snapshots per-process accounting from an HTTP
	// goroutine while the simulation mutates the table; the simulation
	// itself is single-threaded per kernel.
	procMu sync.RWMutex
	procs  map[PID]*Proc
	// dead holds the final accounting snapshots of the most recently
	// reaped processes (bounded ring), so /procs and the per-proc
	// /metrics families still show a run's processes after they exit.
	dead []ProcStat
	next PID
	// curPID is the process on whose behalf the kernel is currently
	// working, for attributing frame alloc/free flight events. Written
	// only from the simulation goroutine (syscall entry, fault handling).
	curPID PID

	Stats Stats

	// Obs is the observability handle (metrics registry + span tracer).
	// Never nil; defaults to obs.Default, and all span/histogram traffic
	// through it is gated on the global obs.On() switch.
	Obs *obs.Obs

	// Flight is the flight recorder kernel events stream into. Never nil;
	// defaults to flight.Default (disabled until armed), so every emit
	// point pays one atomic load when the recorder is off.
	Flight *flight.Recorder

	// Chaos, when non-nil, is consulted at the entry of fallible syscalls
	// and may fail them with an injected error (ENOMEM/EINTR storms). Set
	// by the chaos harness (internal/chaos); nil in production.
	Chaos SyscallFailer

	// Memmap, when non-nil, is the armed memory-provenance plane
	// (internal/obs/memmap): frame lineage, per-μprocess mapping sets, and
	// the fork-tree sharing view. Armed via ArmMemmap before the simulation
	// runs; nil in production.
	Memmap *memmap.Plane

	// Causal, when non-nil, is the armed causal trace-context plane
	// (internal/obs/causal): request origins mint trace IDs, the kernel
	// carries them across fork/pipe/signal boundaries, and the delay hooks
	// flush per-trace critical-path segments. Armed via ArmCausal; nil in
	// production, where every hook pays one nil check.
	Causal *causal.Plane
	// Profile, when non-nil, is the armed virtual-time sampling profiler
	// (internal/obs/profile): the engine charge hook feeds it stack-
	// attributed samples at a fixed virtual-time quantum. Armed via
	// ArmProfile; nil in production runs.
	Profile *profile.Plane
	// memPhase classifies the kernel activity frames allocated right now
	// should be attributed to (image load, eager fork copy, fault
	// resolution, shm). Written only from the simulation goroutine.
	memPhase memmap.Origin
	// forkChild is the child Proc under construction while a fork engine
	// runs — not yet in the process table, but already receiving region
	// mappings that the provenance plane must attribute to it.
	forkChild *Proc

	// Locks, when non-nil, is the armed lockstat table. On BKL machines the
	// BKL is a real metered lock and lkProc/lkFD/lkTmem are shadow meters
	// for the subsystems the BKL serializes on its behalf. On fine-grained
	// machines every lock in the hierarchy is a real metered lock: the
	// shadow trio stays nil and lkUproc/lkFDT are the shared per-class
	// meters the per-μprocess locks attach to. Armed via ArmLockstat; nil
	// in production, where every site pays one nil check.
	Locks   *sim.LockTable
	lkProc  *sim.LockMeter
	lkFD    *sim.LockMeter
	lkTmem  *sim.LockMeter
	lkUproc *sim.LockMeter
	lkFDT   *sim.LockMeter
}

// Lock-ordering ranks of the split kernel lock hierarchy. Acquisition must
// ascend: μprocess locks first (in ascending-PID order within the rank),
// then a proc-table shard, the owning FD table, the tmem allocator, and the
// residual global lock innermost. sim.VLock's ordering assertion enforces
// this against each task's held stack.
const (
	lockRankUProc     = 10
	lockRankProcTable = 20
	lockRankFDTable   = 30
	lockRankTmem      = 40
	lockRankGlobal    = 50
)

// procTableShards is the shard count of the split proc-table lock: enough
// that an 8-core fork storm rarely collides on one shard, small enough to
// stay readable in /locks.
const procTableShards = 8

// lockPlane is the kernel's lock inventory (see the Kernel.locks comment).
// Per-μprocess locks live on the Proc itself.
type lockPlane struct {
	global sim.VLock
	shards [procTableShards]sim.VLock
	tmem   sim.VLock
}

// shardFor returns the proc-table shard lock covering pid.
func (k *Kernel) shardFor(pid PID) *sim.VLock {
	return &k.locks.shards[int(pid)%procTableShards]
}

// initProcLocks places a new μprocess's locks in the ordering hierarchy —
// the PID is the intra-rank sequence, so parent/child and signal pairs are
// always taken in ascending-PID canonical order — and attaches the shared
// per-class meters when lockstat is armed. Called for every Proc; on BKL
// machines the locks are initialized but never acquired.
func (k *Kernel) initProcLocks(p *Proc) {
	p.lk.Init("uproc", lockRankUProc, int(p.PID))
	p.fdlk.Init("fdtable", lockRankFDTable, int(p.PID))
	if k.Locks != nil && k.Machine.FineGrainedLocks {
		p.lk.SetMeter(k.lkUproc)
		p.fdlk.SetMeter(k.lkFDT)
	}
}

// lockRemote takes target's μprocess lock from p's syscall context in the
// canonical ascending-PID pair order: a higher-PID target nests inside p's
// own lock, while a lower-PID target requires releasing p.lk and re-taking
// the pair in order. No-op outside fine-grained mode or for p itself.
func (k *Kernel) lockRemote(p, target *Proc) {
	if !k.Machine.FineGrainedLocks || target == p {
		return
	}
	if target.PID > p.PID {
		k.lockWait(p, &target.lk)
		return
	}
	p.lk.Unlock(p.Task)
	k.lockWait(p, &target.lk)
	k.lockWait(p, &p.lk)
}

// unlockRemote undoes lockRemote.
func (k *Kernel) unlockRemote(p, target *Proc) {
	if !k.Machine.FineGrainedLocks || target == p {
		return
	}
	target.lk.Unlock(p.Task)
}

// SyscallFailer is the syscall-level fault-injection hook: it returns a
// non-nil error to fail the named syscall before it performs any work.
type SyscallFailer interface {
	SyscallError(name string) error
}

// chaosErr consults the chaos hook for the named syscall. The non-nil
// error, if any, must be returned to the caller before the syscall mutates
// kernel state.
func (k *Kernel) chaosErr(name string) error {
	if k.Chaos == nil {
		return nil
	}
	return k.Chaos.SyscallError(name)
}

// Config bundles kernel construction parameters.
type Config struct {
	Machine   *model.Machine
	Engine    ForkEngine
	Isolation IsolationLevel
	// Frames is the physical memory size in 4 KiB frames. Zero selects a
	// default large enough for the biggest experiment.
	Frames int
	// ASLRSeed, when nonzero, randomizes μprocess region base offsets
	// (§3.7). The same seed reproduces the same layout.
	ASLRSeed int64
	// Obs overrides the observability handle (default: obs.Default, the
	// process-wide registry/tracer the bench harness aggregates into).
	Obs *obs.Obs
	// Flight overrides the flight recorder (default: flight.Default). The
	// chaos harness passes a private enabled recorder per run so dumps are
	// deterministic per seed.
	Flight *flight.Recorder
}

// TrackNew, when non-nil, observes every kernel New constructs. The
// telemetry server installs it to follow the currently live kernel across
// a bench run's many boots (so /procs always reflects the kernel running
// now). Install it before any kernel is constructed; it must be safe to
// call from whichever goroutine boots kernels.
var TrackNew func(*Kernel)

// New boots a kernel on a fresh simulation engine.
func New(cfg Config) *Kernel {
	frames := cfg.Frames
	if frames == 0 {
		frames = 1 << 19 // 2 GiB
	}
	o := cfg.Obs
	if o == nil {
		o = obs.Default
	}
	fr := cfg.Flight
	if fr == nil {
		fr = flight.Default
	}
	k := &Kernel{
		Eng:     sim.NewEngine(cfg.Machine.Cores),
		Machine: cfg.Machine,
		Mem:     tmem.New(frames),
		Engine:  cfg.Engine,
		Iso:     cfg.Isolation,
		vfs:     NewVFS(),
		procs:   make(map[PID]*Proc),
		next:    1,
		Obs:     o,
		Flight:  fr,
	}
	// Frame alloc/free flight events: timestamped from the running task's
	// virtual clock (zero during pre-Run setup) and attributed to the
	// process the kernel is currently serving. Allocation only ever happens
	// on the simulation goroutine — parallel fork workers copy into frames
	// allocated before the fan-out — so curPID is stable here.
	k.Mem.SetFrameObserver(func(alloc bool, pfn tmem.PFN) {
		if pl := k.Memmap; pl.On() {
			if alloc {
				pid, gen := k.curPID, 0
				if c := k.forkChild; c != nil {
					// Eager fork copies run on the parent's behalf but
					// materialize the child's image.
					pid, gen = c.PID, c.Gen
				} else if p, ok := k.procs[pid]; ok {
					gen = p.Gen
				}
				pl.OnAlloc(pfn, int32(pid), gen, k.memPhase)
			} else {
				pl.OnFree(pfn)
			}
		}
		if !k.Flight.On() {
			return
		}
		kind := flight.KindFrameAlloc
		if !alloc {
			kind = flight.KindFrameFree
		}
		k.Flight.Emit(uint64(k.Eng.Now()), int32(k.curPID), kind, uint64(pfn), 0, 0)
	})
	// Dispatch-queueing flight events: the engine consults this hook only
	// when scheduler stats are armed, and only for grants that waited.
	k.Eng.OnDispatch = func(t *sim.Task, wait sim.Time) {
		if k.Flight.On() {
			k.Flight.Emit(uint64(t.Now()), t.Tag, flight.KindDispatch, uint64(wait), 0, 0)
		}
	}
	if cfg.Machine.SingleAddressSpace {
		k.SharedAS = vm.NewAddressSpace(k.Mem)
	}
	if cfg.Machine.FineGrainedLocks {
		// Arm the split lock hierarchy. On BKL machines locks.global stays a
		// zero-value legacy VLock — its virtual-exclusion semantics (and
		// therefore every pre-split timeline) are untouched.
		k.locks.global.Init("residual", lockRankGlobal, 0)
		for i := range k.locks.shards {
			k.locks.shards[i].Init("proctable", lockRankProcTable, i)
		}
		k.locks.tmem.Init("tmem", lockRankTmem, 0)
		// Per-CPU frame caches give the fault path its allocator-lock-free
		// fast path; BKL/POSIX machines skip this so their PFN ordering (and
		// golden output) is bit-identical.
		k.Mem.EnableCPUCaches(cfg.Machine.Cores, 0)
	}
	if cfg.ASLRSeed != 0 {
		k.Regions.aslr = rand.New(rand.NewSource(cfg.ASLRSeed))
	}
	// Reserve the kernel's own region first (Fig. 1: kernel at the bottom
	// of the shared address space).
	k.KernelRegion = k.Regions.reserve(regionAlign, "kernel")
	// Mint the sealed syscall entry capability: an executable capability
	// into kernel text, sealed as a sentry. μprocesses can invoke it but
	// never inspect or retarget it.
	kcode := cap.Root(k.KernelRegion.Base, 1<<20).WithPerms(cap.PermCode)
	sentry, err := kcode.SealEntry()
	if err != nil {
		panic("kernel: cannot seal syscall entry: " + err.Error())
	}
	k.sentry = sentry
	if TrackNew != nil {
		TrackNew(k)
	}
	return k
}

// ArmMemmap attaches the memory-provenance plane to this kernel: the plane
// is reset (frame numbers restart per kernel), the mutation stream of
// every address space — the shared one here, private ones as the kernel
// creates them — is routed into it, and frame copies feed lineage. Must
// run before the simulation allocates frames — the invariant checker
// cross-checks the plane against the allocator, so a late arm would
// miscount. The telemetry server and the chaos harness both arm planes;
// production kernels leave Memmap nil and pay only nil checks.
func (k *Kernel) ArmMemmap(pl *memmap.Plane) {
	pl.Reset()
	k.Memmap = pl
	if k.SharedAS != nil {
		k.SharedAS.SetObserver(memObserver{k: k})
	}
	k.Mem.SetCopyObserver(func(dst, src tmem.PFN) { k.Memmap.OnCopy(dst, src) })
}

// ArmLockstat attaches a lockstat table. On BKL machines the BKL becomes a
// named metered lock and the BKL-serialized proc-table/FD-table/tmem sites
// get shadow meters that count entries and credited hold time (they have no
// lock of their own to bracket — the before yardstick). On fine-grained
// machines every real lock in the split hierarchy is metered, reusing the
// shadow meters' names ("proctable", "fdtable", "tmem") so pre-split
// baselines stay comparable in /locks and the ufork_lock_* families; the
// BKL's successor appears as the narrow "residual" lock and the new
// per-μprocess locks share a "uproc" class meter. Also arms scheduler
// statistics on the engine. Arm before the simulation runs; metering never
// mutates virtual clocks, so timelines are unchanged.
func (k *Kernel) ArmLockstat(lt *sim.LockTable) {
	lt.Reset()
	k.Locks = lt
	if k.Machine.FineGrainedLocks {
		k.locks.global.SetMeter(lt.Meter("residual", "kernel.lockPlane.global"))
		// Class meters are shared by every lock of the class (all the
		// proc-table shards; every Proc's lk/fdlk), so their waiters-high
		// watermark reads as a class-wide convoy estimate.
		shardMeter := lt.Meter("proctable", "kernel.lockPlane.shards")
		for i := range k.locks.shards {
			k.locks.shards[i].SetMeter(shardMeter)
		}
		k.locks.tmem.SetMeter(lt.Meter("tmem", "tmem.Memory"))
		k.lkUproc = lt.Meter("uproc", "kernel.Proc.lk")
		k.lkFDT = lt.Meter("fdtable", "kernel.Proc.fdlk")
		k.procMu.RLock()
		for _, p := range k.procs {
			p.lk.SetMeter(k.lkUproc)
			p.fdlk.SetMeter(k.lkFDT)
		}
		k.procMu.RUnlock()
	} else {
		k.locks.global.SetMeter(lt.Meter("bkl", "kernel.enter"))
		k.lkProc = lt.Meter("proctable", "kernel.procMu")
		k.lkFD = lt.Meter("fdtable", "kernel.FDTable")
		k.lkTmem = lt.Meter("tmem", "tmem.Memory")
	}
	if k.Eng.Sched() == nil {
		k.Eng.ArmSched(sim.NewSchedStats(k.Eng.Cores()))
	}
}

// Lockstat returns the per-lock statistics snapshot, or nil when lockstat
// was never armed.
func (k *Kernel) Lockstat() []sim.LockStat {
	if k.Locks == nil {
		return nil
	}
	return k.Locks.Snapshot()
}

// SchedSnapshot returns the scheduler telemetry snapshot, or nil when
// scheduler stats were never armed.
func (k *Kernel) SchedSnapshot() *sim.SchedSnapshot {
	s := k.Eng.Sched()
	if s == nil {
		return nil
	}
	snap := s.Snapshot()
	return &snap
}

// addressSpaceFor returns the page table p runs in: the shared one on a
// single-address-space machine, else a fresh one of p's own, whose
// mutations an armed provenance plane attributes to p.
func (k *Kernel) addressSpaceFor(p *Proc) *vm.AddressSpace {
	if k.SharedAS != nil {
		return k.SharedAS
	}
	as := vm.NewAddressSpace(k.Mem)
	if k.Memmap != nil {
		as.SetObserver(memObserver{k: k, pid: int32(p.PID)})
	}
	return as
}

// memObserver routes page-table mutations into the provenance plane. A
// private address space's observer carries its owner's pid; the shared
// one's resolves each VPN to the μprocess whose region holds it. Runs on
// the simulation goroutine.
type memObserver struct {
	k   *Kernel
	pid int32
}

// pidFor resolves a virtual page to its owning μprocess: the bound owner
// of a private address space; otherwise the in-flight fork child first
// (its mappings appear before it joins the process table), then live
// processes, then zombies — a released region may be reused while its
// previous owner is still unreaped, so live wins and the newest zombie
// breaks ties.
func (o memObserver) pidFor(vpn vm.VPN) int32 {
	if o.pid != 0 {
		return o.pid
	}
	va := uint64(vpn) * PageSize
	k := o.k
	if c := k.forkChild; c != nil && c.Region.Contains(va) {
		return int32(c.PID)
	}
	zombie := int32(0)
	for _, p := range k.procs {
		if !p.Region.Contains(va) {
			continue
		}
		if !p.exited {
			return int32(p.PID)
		}
		if int32(p.PID) > zombie {
			zombie = int32(p.PID)
		}
	}
	return zombie
}

func (o memObserver) OnMap(vpn vm.VPN, page *vm.Page) {
	o.k.Memmap.OnMap(o.pidFor(vpn), page.PFN)
}

func (o memObserver) OnUnmap(vpn vm.VPN, page *vm.Page) {
	o.k.Memmap.OnUnmap(o.pidFor(vpn), page.PFN)
}

func (o memObserver) OnReplace(vpn vm.VPN, old, new *vm.Page) {
	pid := o.pidFor(vpn)
	o.k.Memmap.OnUnmap(pid, old.PFN)
	o.k.Memmap.OnMap(pid, new.PFN)
}

// VFS returns the kernel's file system.
func (k *Kernel) VFS() *VFS { return k.vfs }

// Procs returns the live process table (for tests and the harness, which
// inspect it only while the simulation is quiescent; live snapshots go
// through ProcStats).
func (k *Kernel) Procs() map[PID]*Proc { return k.procs }

// FindProc returns the process with the given PID.
func (k *Kernel) FindProc(pid PID) (*Proc, bool) {
	k.procMu.RLock()
	p, ok := k.procs[pid]
	k.procMu.RUnlock()
	return p, ok
}

// FindRegion maps a virtual address to its owning region, used by the
// relocation pass for capabilities that point into an ancestor μprocess.
func (k *Kernel) FindRegion(va uint64) (Region, bool) { return k.Regions.find(va) }

// ReserveRegion allocates a fresh contiguous region of the shared virtual
// address space (used by fork engines for child μprocesses).
func (k *Kernel) ReserveRegion(size uint64, name string) Region {
	return k.Regions.reserve(size, name)
}

// BKLContended reports how many acquisitions of the global serializing lock
// had to wait — the big kernel lock on BKL machines (the SMP serialization
// the paper discusses in §4.5), or the narrow residual lock once the
// hierarchy is split.
func (k *Kernel) BKLContended() uint64 { return k.locks.global.Contended() }

// Run drives the simulation to completion.
func (k *Kernel) Run() { k.Eng.Run() }

// Spawn loads a program and creates its initial μprocess, whose entry
// function starts at virtual time start.
func (k *Kernel) Spawn(spec ProgramSpec, start sim.Time, entry func(*Proc)) (*Proc, error) {
	p, err := k.load(spec)
	if err != nil {
		return nil, err
	}
	k.startProc(p, start, entry)
	return p, nil
}

// startProc attaches a sim task to a fully constructed Proc.
func (k *Kernel) startProc(p *Proc, start sim.Time, entry func(*Proc)) {
	parent := PID(0)
	if p.Parent != nil {
		parent = p.Parent.PID
	}
	if k.Flight.On() {
		k.Flight.Emit(uint64(start), int32(p.PID), flight.KindProcSpawn, uint64(parent), 0, 0)
	}
	k.Memmap.OnSpawn(int32(p.PID), int32(parent), p.Spec.Name, p.Gen)
	if obs.On() {
		k.Obs.Tracer.SetProcName(int(p.PID), fmt.Sprintf("%s[%d]", p.Spec.Name, p.PID))
	}
	p.Task = k.Eng.Go(fmt.Sprintf("%s[%d]", p.Spec.Name, p.PID), start, func(t *sim.Task) {
		defer k.reapOnReturn(p)
		if p.Parent != nil {
			k.Engine.ChildStart(k, p)
		}
		entry(p)
	})
	p.Task.SwitchCost = k.Machine.CtxSwitch
	p.Task.Tag = int32(p.PID)
	if obs.On() {
		k.Obs.Tracer.SetThreadName(int(p.PID), p.Task.ID, p.Task.Name)
	}
}

type exitPanic struct{ status int }

// reapOnReturn converts a returning (or Exit-panicking) entry function into
// process termination.
func (k *Kernel) reapOnReturn(p *Proc) {
	status := 0
	if r := recover(); r != nil {
		ep, ok := r.(exitPanic)
		if !ok {
			panic(r)
		}
		status = ep.status
	}
	k.terminate(p, status)
}

// terminate marks p as a zombie, releases its memory and descriptors, and
// wakes any waiting parent.
func (k *Kernel) terminate(p *Proc, status int) {
	if p.exited {
		return
	}
	fg := k.Machine.FineGrainedLocks
	t := p.Task
	// A traced process closes its span before teardown: the exit path's
	// lock footprint below belongs to kernel bookkeeping, not the op.
	k.causalExit(p)
	// Whether the region can be reclaimed is known before teardown starts,
	// so the residual lock can join the pre-acquired footprint below.
	releaseRegion := k.Machine.SingleAddressSpace && p.Parent != nil && p.Forked == 0
	if fg {
		// The whole exit footprint is taken before the first state change,
		// in hierarchy order: our own μprocess lock, the FD table, the tmem
		// allocator, and — when the region is reclaimable — the residual
		// global lock. Every park of the exit path therefore happens while
		// the process is still fully intact; once teardown begins (zombie
		// flag, descriptor drain, unmap, region release) it runs to
		// completion without yielding, so no concurrent audit or table
		// walker can observe the image half-gone.
		k.lockWait(p, &p.lk)
		k.lockWait(p, &p.fdlk)
		k.Mem.SetCPU(t.LastCore())
		k.lockWait(p, &k.locks.tmem)
		if releaseRegion {
			k.lockWait(p, &k.locks.global)
		}
	}
	p.exited = true
	p.exitStatus = status
	if k.Flight.On() {
		k.Flight.Emit(uint64(t.Now()), int32(p.PID), flight.KindProcExit, uint64(status), 0, 0)
	}
	k.curPID = p.PID
	p.FDs.CloseAll(k, p)
	// Freeze the final memory footprint into the accounting gauges before
	// the image is unmapped: the reaped ProcStat snapshot then reports the
	// RSS/PSS/USS the process died with rather than zeros.
	k.refreshMemStats(p)
	// Release the μprocess memory image. Shared frames survive through
	// their reference counts; private frames are freed.
	if err := p.AS.UnmapRange(p.Region.Base, p.Region.Size); err != nil {
		panic("kernel: exit unmap: " + err.Error())
	}
	k.Memmap.OnExit(int32(p.PID))
	// Its image is gone: release the process's frame-ownership charge so
	// live /procs views and the stress-soak breakdown see exited processes
	// drop to zero instead of leaking attribution.
	p.Acct.FramesOwned.Set(0)
	// Virtual-address-space reclamation (§6 future work): the region can
	// be reused once nothing can reference it. Capabilities into a region
	// only ever flow to fork descendants (through shared pages pending
	// relocation), so a child that never forked leaves no references
	// behind; its region returns to the size-class free list. Only
	// meaningful in the single address space — the multi-AS baselines
	// give every process the same virtual range.
	if releaseRegion {
		k.Regions.release(p.Region)
	}
	if fg {
		// Teardown done: unwind the footprint innermost-first, down to our
		// own μprocess lock (released in the reparenting branches below).
		if releaseRegion {
			k.locks.global.Unlock(t)
		}
		k.locks.tmem.Unlock(t)
		p.fdlk.Unlock(t)
	}
	if p.Parent != nil && !p.Parent.exited {
		if fg {
			// Reparenting pokes the parent's state (SIGCHLD, waiter wake):
			// drop our own lock first — the parent's seq orders before ours —
			// and take the parent's.
			p.lk.Unlock(t)
			k.lockWait(p, &p.Parent.lk)
		}
		k.notifyChild(p.Parent)
		p.Parent.childExit.WakeAll(t, t.Now())
		if fg {
			p.Parent.lk.Unlock(t)
		}
	} else {
		if fg {
			p.lk.Unlock(t)
		}
		// No parent to reap us: self-reap.
		k.reap(p, p)
	}
}

// allocPID hands out the next process ID. The PID lives in kernel memory a
// μprocess cannot modify (§3.5 step 2).
func (k *Kernel) allocPID() PID {
	pid := k.next
	k.next++
	return pid
}
