package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/sim"
	"ufork/internal/vm"
)

// opts configures one rep of a workload.
type opts struct {
	seed   int64
	traced bool
	// ops, when non-zero, overrides the workload's measured op count.
	ops int
	// sabotage, when set, corrupts one kind of result on its way to its
	// oracle. Tests use it to prove each oracle fires.
	sabotage string
}

// size returns the op count of a rep: the workload's own unless the
// options override it.
func (o opts) size(ops int) int {
	if o.ops > 0 {
		return o.ops
	}
	return ops
}

// Sabotage modes, one per oracle.
const (
	sabotageRead  = "read"  // kvstore reads
	sabotageDump  = "dump"  // BGSAVE dumps
	sabotageReply = "reply" // FaaS replies
	sabotageGet   = "get"   // HTTP GET bodies
)

// rep is the outcome of one boot-to-teardown run of a workload.
type rep struct {
	setup   time.Duration // host CPU (user+sys) of boot, image load, preload/warm-up
	measure time.Duration // host: first measured op to last
	cpu     time.Duration // host CPU (user+sys) of the measured phase

	attempted, failed int
	failures          []string   // the first few oracle messages
	lat               []sim.Time // per successful op, from its due time
	late              []sim.Time // per op, how late the generator issued it
	start, end        sim.Time   // virtual: start of the measured phase, last completion

	virt map[string]float64 // virtual per-layer figures; must repeat exactly per seed
	host map[string]float64 // host per-layer figures (traced reps only)

	spans *spanLog
	prof  []cpuSample
}

const maxFailureNotes = 5

// fail records one failed op with the oracle's reason.
func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// done records one finished op: how late it was issued, and its latency
// from the due time, or a failure when err is non-nil.
func (r *rep) done(a arrival, issued, finished sim.Time, err error) {
	r.attempted++
	r.late = append(r.late, lateness(r.start+a.Due, issued))
	if err != nil {
		r.fail("op %d (key %d): %v", a.ID, a.Key, err)
		return
	}
	r.lat = append(r.lat, finished-(r.start+a.Due))
	if finished > r.end {
		r.end = finished
	}
}

// Host environment pins.
var (
	hostProcs   = min(2, runtime.NumCPU()) // GOMAXPROCS
	forkWorkers = min(2, runtime.NumCPU()) // core.Engine.Parallelism
)

// boot creates a kernel on the given machine with a CoPA μFork engine.
// A traced rep switches the obs layer on for its whole run; an untraced
// rep switches it off.
func boot(m *model.Machine, frames int, traced bool) *kernel.Kernel {
	eng := core.New(core.CopyOnPointerAccess)
	eng.Parallelism = forkWorkers
	cfg := kernel.Config{Machine: m, Engine: eng, Isolation: kernel.IsolationFault, Frames: frames}
	obs.Disable()
	if traced {
		// A private registry collects the allocator's churn counters; the
		// one-event tracer keeps obs spans from piling up in memory.
		cfg.Obs = &obs.Obs{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(1)}
		obs.Enable()
	}
	k := kernel.New(cfg)
	if traced {
		k.ArmLockstat(sim.NewLockTable())
	}
	return k
}

// runRoot spawns entry as the root μprocess and drives the simulation.
func runRoot(k *kernel.Kernel, spec kernel.ProgramSpec, entry func(*kernel.Proc) error) error {
	var innerErr error
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) { innerErr = entry(p) }); err != nil {
		return err
	}
	k.Run()
	return innerErr
}

// probe brackets the measured phase of a rep: it stamps host and virtual
// clocks and snapshots every layer counter at both ends, so the counts
// cover the measured ops only.
type probe struct {
	r       *rep
	k       *kernel.Kernel
	c0      time.Duration // process CPU time when the rep started
	tMeas   time.Time
	cpu0    time.Duration
	kst     map[string]uint64
	asc     [3]uint64 // pages copied, pages adopted, caps relocated
	faults  [3]uint64
	locks   [3]uint64 // acquisitions, contended, wait ns
	moved   uint64
	mem     runtime.MemStats
	reg     map[string]uint64
	sched   *sim.SchedStats
	profBuf bytes.Buffer
	forks   []kernel.ForkStats
	forkNS  []time.Duration
}

var faultKinds = [3]vm.FaultKind{vm.FaultWriteProtect, vm.FaultCapLoad, vm.FaultNoRead}

func newProbe(r *rep, k *kernel.Kernel, c0 time.Duration) *probe {
	r.virt = map[string]float64{}
	r.host = map[string]float64{}
	return &probe{r: r, k: k, c0: c0}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin marks the first measured op: set-up ends here.
func (pb *probe) begin(now sim.Time) {
	pb.r.start = now
	pb.r.end = now
	pb.kst = pb.k.Stats.Snapshot()
	for i, kind := range faultKinds {
		pb.faults[i] = pb.k.SharedAS.Stats.Fault(kind)
	}
	pb.asc = asCounts(&pb.k.SharedAS.Stats)
	pb.moved = pb.k.Mem.BytesMoved()
	if pb.r.spans != nil {
		pb.reg = pb.k.Obs.Reg.Snapshot().Counters
		pb.locks = lockTotals(pb.k)
		pb.sched = sim.NewSchedStats(pb.k.Eng.Cores())
		pb.k.Eng.ArmSched(pb.sched)
		runtime.ReadMemStats(&pb.mem)
		if err := pprof.StartCPUProfile(&pb.profBuf); err != nil {
			pb.r.fail("cpu profile: %v", err)
		}
	}
	pb.cpu0 = processCPU()
	pb.r.setup = pb.cpu0 - pb.c0
	pb.tMeas = time.Now()
}

// fork runs k.Fork for p inside a span and records its statistics.
func (pb *probe) fork(p *kernel.Proc, op int64, parent int32, child func(*kernel.Proc)) (kernel.PID, error) {
	id := pb.r.spans.begin("k.Fork", op, parent, p.Now())
	h := time.Now()
	pid, err := pb.k.Fork(p, child)
	d := time.Since(h)
	pb.r.spans.end(id, p.Now())
	if err == nil {
		pb.forks = append(pb.forks, p.LastFork)
		pb.forkNS = append(pb.forkNS, d)
	}
	return pid, err
}

// finish closes the measured phase and folds every layer counter into
// the rep.
func (pb *probe) finish(now sim.Time) {
	r := pb.r
	r.measure = time.Since(pb.tMeas)
	r.cpu = processCPU() - pb.cpu0
	if r.spans != nil {
		pprof.StopCPUProfile()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		kops := float64(r.attempted) / 1000
		r.host["host.alloc_mb_per_kop"] = float64(ms.TotalAlloc-pb.mem.TotalAlloc) / (1 << 20) / kops
		r.host["host.gc_cycles"] = float64(ms.NumGC - pb.mem.NumGC)
		samples, err := parseCPUProfile(pb.profBuf.Bytes())
		if err != nil {
			r.fail("cpu profile: %v", err)
		}
		r.prof = samples
	}
	k, v := pb.k, r.virt
	kst := k.Stats.Snapshot()
	v["kernel.syscalls"] = float64(kst["syscalls"] - pb.kst["syscalls"])
	v["kernel.ctx_switches"] = float64(kst["ctx-switches"] - pb.kst["ctx-switches"])
	v["kernel.page_faults"] = float64(kst["page-faults"] - pb.kst["page-faults"])
	st := &k.SharedAS.Stats
	for i, kind := range faultKinds {
		v["vm.faults."+kind.String()] = float64(st.Fault(kind) - pb.faults[i])
	}
	asc := asCounts(st)
	v["vm.pages_copied"] = float64(asc[0] - pb.asc[0])
	v["vm.pages_adopted"] = float64(asc[1] - pb.asc[1])
	v["vm.caps_relocated"] = float64(asc[2] - pb.asc[2])
	v["tmem.bytes_moved"] = float64(k.Mem.BytesMoved() - pb.moved)
	v["tmem.peak_frames"] = float64(k.Mem.PeakAllocated())
	late := append([]sim.Time(nil), r.late...)
	v["gen.late_p99_us"] = us(quantile(late, 0.99))
	v["gen.late_frac"] = lateFrac(r.late)
	pb.forkFigures()
	if r.spans != nil {
		pb.armedFigures(now)
	}
}

// forkFigures folds the measured phase's forks: count, virtual latency
// percentiles, mean phase split, and mean host time per fork call.
func (pb *probe) forkFigures() {
	v, n := pb.r.virt, len(pb.forks)
	v["core.forks"] = float64(n)
	lat := make([]sim.Time, n)
	var ph [6]sim.Time
	for i, f := range pb.forks {
		lat[i] = f.Latency
		ph[0] += f.ReserveTime
		ph[1] += f.PTECopyTime
		ph[2] += f.EagerCopyTime
		ph[3] += f.ScanTime
		ph[4] += f.RegTime
		ph[5] += f.FixupTime
	}
	v["core.fork_virt_p50_us"] = us(quantile(lat, 0.50))
	v["core.fork_virt_p99_us"] = us(quantile(lat, 0.99))
	for i, name := range []string{"reserve", "ptecopy", "eagercopy", "scan", "reg", "fixup"} {
		mean := 0.0
		if n > 0 {
			mean = us(ph[i]) / float64(n)
		}
		v["core.fork_phase_virt_us."+name] = mean
	}
	if pb.r.spans != nil {
		var total time.Duration
		for _, d := range pb.forkNS {
			total += d
		}
		mean := 0.0
		if n > 0 {
			mean = float64(total.Microseconds()) / float64(n)
		}
		pb.r.host["core.fork_host_us"] = mean
	}
}

// armedFigures folds the counters only a traced rep arms: allocator churn,
// lock statistics and scheduler statistics.
func (pb *probe) armedFigures(now sim.Time) {
	v, k := pb.r.virt, pb.k
	reg := k.Obs.Reg.Snapshot().Counters
	delta := func(name string) float64 { return float64(reg[name] - pb.reg[name]) }
	v["alloc.allocs"] = delta("alloc.fresh") + delta("alloc.reuse")
	v["alloc.frees"] = delta("alloc.free")
	lk := lockTotals(k)
	v["kernel.lock_wait_virt_ms"] = float64(lk[2]-pb.locks[2]) / 1e6
	v["kernel.lock_contended_frac"] = ratio(float64(lk[1]-pb.locks[1]), float64(lk[0]-pb.locks[0]))
	snap := pb.sched.Snapshot()
	v["sim.dispatches"] = float64(snap.DispatchWait.Count)
	v["sim.runq_wait_p99_us"] = float64(snap.DispatchWait.P99) / 1e3
	var busy uint64
	for _, c := range snap.PerCore {
		busy += c.BusyNS
	}
	v["sim.core_busy_frac"] = ratio(float64(busy), float64(snap.Cores)*float64(now-pb.r.start))
}

func asCounts(st *vm.Stats) [3]uint64 {
	return [3]uint64{st.PagesCopied.Value(), st.PagesAdopted.Value(), st.CapsRelocated.Value()}
}

// lockTotals sums acquisitions, contended acquisitions and wait time over
// every metered kernel lock.
func lockTotals(k *kernel.Kernel) [3]uint64 {
	var t [3]uint64
	for _, ls := range k.Lockstat() {
		t[0] += ls.Acquisitions
		t[1] += ls.Contended
		t[2] += ls.WaitTotalNS
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// quantile is the nearest-rank q-quantile of ts (sorted in place).
func quantile(ts []sim.Time, q float64) sim.Time {
	if len(ts) == 0 {
		return 0
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	i := int(math.Ceil(q*float64(len(ts)))) - 1
	return ts[max(0, min(i, len(ts)-1))]
}
