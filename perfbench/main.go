// Command perfbench is the repository benchmark. It runs one of four
// open-loop workloads on the simulated Morello machine, checks every
// result against an oracle, and reports end-to-end metrics on two clocks:
// host (this Go program's wall and CPU time) and virtual (the simulated
// machine). With --trace 1 it pairs untraced and traced runs of the same
// seed and reports per-layer figures instead.
//
//	go run . --workload kv-update --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"ufork/internal/bench/ycsb"
	"ufork/internal/sim"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(opts) (*rep, error)
}

// The workloads. Offered rates sit near half of each workload's capacity:
// its completed ops per virtual second when offered far more than it can
// serve, which with one sequential client per stream is its closed-loop
// capacity. Per-rep op counts give p99 at least 60 samples beyond it and
// keep a rep under about ten host seconds.
var workloads = []workload{
	{"kv-update", func(o opts) (*rep, error) {
		return runKV(kvShape{keys: 16384, valBytes: 128, mix: ycsb.MixA, workers: 4, clients: 1, rate: 262_000, ops: 12_000}, o)
	}},
	{"bgsave", func(o opts) (*rep, error) {
		return runKV(kvShape{keys: 4096, valBytes: 4096, mix: ycsb.MixB, clients: 1, rate: 38_000, ops: 6000}, o)
	}},
	{"faas-zygote", func(o opts) (*rep, error) {
		return runFaaS(faasShape{workerCores: 2, rate: 6600, ops: 4500}, o)
	}},
	{"http-fleet", func(o opts) (*rep, error) {
		return runHTTP(httpShape{docs: 4096, bodyBytes: 128, workers: 4, drivers: 8, mix: ycsb.MixB, rate: 50_000, ops: 60_000}, o)
	}},
}

// held names the workloads BENCHMARK.json does not list yet, and why. The
// command still runs them, and still fails on their oracles.
var held = map[string]string{
	"http-fleet": "httpd's PUT truncates the document before writing it, so a GET racing a PUT of the same document can read an empty body, which the GET oracle fails",
}

// Set-up-only reps per run: at least minSetupReps, then more while the
// run has spent less than setupBudget, up to maxSetupReps. Each serves
// setupRepOps ops.
const (
	minSetupReps = 3
	maxSetupReps = 10
	setupBudget  = 2 * time.Second
	setupRepOps  = 8
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostEnv is the pinned host environment, printed with every output.
type hostEnv struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"fork_parallelism"`
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu_model"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: kv-update, bgsave, faas-zygote, http-fleet")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 35, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 = pair untraced and traced runs and report per-layer metrics")
		out     = flag.String("out", ".bench_build/spans", "directory for the traced runs' spans")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(hostProcs)
	env := hostEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: forkWorkers, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPU: cpuModel()}
	fmt.Printf("env gomaxprocs=%d fork_parallelism=%d nproc=%d go=%s cpu=%q\n",
		env.GOMAXPROCS, env.Parallelism, env.NProc, env.GoVersion, env.CPU)

	res, err := measure(w, opts{seed: *seed}, *seconds, *trace == 1, *out, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs reps of w until the time budget is spent and folds them
// into the result. Untraced, every rep is untraced; traced, reps alternate
// untraced and traced. Every rep of one seed must agree exactly on every
// virtual figure.
func measure(w workload, o opts, seconds float64, traced bool, out string, env hostEnv) (result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	began := time.Now()
	var reps []*rep
	var spent []time.Duration
	var setups []float64
	// Set-up is short next to a measured rep, so set-up-only reps (a
	// handful of ops, otherwise uncounted) steady its median and warm the
	// host heap before the first measured rep. Each starts from a collected
	// heap, so set-up's CPU clock does not also pay for an earlier rep's
	// garbage.
	for i := 0; i < maxSetupReps && (i < minSetupReps || time.Since(began) < setupBudget); i++ {
		so := o
		so.ops = setupRepOps
		runtime.GC()
		r, err := w.run(so)
		if err != nil {
			return result{}, fmt.Errorf("set-up rep %d: %w", i, err)
		}
		if r.failed > 0 {
			return result{}, fmt.Errorf("set-up rep %d: %v", i, r.failures)
		}
		setups = append(setups, r.setup.Seconds())
	}
	for i := 0; ; i++ {
		ro := o
		ro.traced = traced && i%2 == 1
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		r, err := w.run(ro)
		if err != nil {
			return result{}, fmt.Errorf("rep %d: %w", i, err)
		}
		spent = append(spent, time.Since(t))
		reps = append(reps, r)
		printRep(i, ro.traced, r)
		if ro.traced {
			path, err := r.spans.write(out, fmt.Sprintf("%s-seed%d-rep%d.jsonl", w.name, o.seed, i), env)
			if err != nil {
				return result{}, err
			}
			fmt.Printf("rep %d spans: %s (%d)\n", i, path, len(r.spans.spans))
		}
		if len(reps) >= 2 && time.Since(began)+medianDur(spent) > budget {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, f := range r.failures {
			fmt.Println("oracle:", f)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if msg := invariance(reps); msg != "" {
		fmt.Println("clock invariance:", msg)
		res.Correct = false
	}
	first := reps[0]
	fmt.Printf("fail_ratio = %.6f failed/attempted (%d/%d ops, %d reps)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, len(reps))
	late := append([]sim.Time(nil), first.late...)
	fmt.Printf("generator lateness: p50 %.3f us, p99 %.3f us, late %.4f of %d ops\n",
		us(quantile(late, 0.5)), us(quantile(late, 0.99)), lateFrac(first.late), len(first.late))

	if !traced {
		var opsPerS []float64
		for _, r := range reps {
			setups = append(setups, r.setup.Seconds())
			opsPerS = append(opsPerS, float64(r.attempted)/r.cpu.Seconds())
		}
		e2e := virtMetrics(first)
		e2e["setup_s"] = metric{median(setups), "s"}
		e2e["host_ops_per_s"] = metric{median(opsPerS), "ops/s"}
		e2e["host_peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
		res.Metrics = e2e
	} else {
		res.Metrics = layerMetrics(reps)
		res.Metrics["fail_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), unitOf("fail_ratio")}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.6g %-8s (%d ops per rep, %d reps)\n", n, m.Value, m.Unit, first.attempted, len(reps))
	}
	return res, nil
}

// virtMetrics are the virtual end-to-end figures of one rep. A failed op
// counts as slower than every successful one.
func virtMetrics(r *rep) map[string]metric {
	lat := append([]sim.Time(nil), r.lat...)
	for i := 0; i < r.attempted-len(r.lat); i++ {
		lat = append(lat, sim.Time(math.MaxUint64))
	}
	return map[string]metric{
		"virt_ops_per_s": {ratio(float64(len(r.lat)), float64(r.end-r.start)/1e9), "ops/s"},
		"virt_p50_us":    {us(quantile(lat, 0.50)), "us"},
		"virt_p99_us":    {us(quantile(lat, 0.99)), "us"},
	}
}

// invariance checks that every rep of the seed agrees on every virtual
// figure, and every traced rep on the counters only tracing arms.
func invariance(reps []*rep) string {
	base := virtMetrics(reps[0])
	for i, r := range reps[1:] {
		for n, m := range virtMetrics(r) {
			if m.Value != base[n].Value {
				return fmt.Sprintf("rep %d %s = %v, rep 0 = %v", i+1, n, m.Value, base[n].Value)
			}
		}
		for n, v := range r.virt {
			for _, o := range reps[:i+1] {
				if ov, ok := o.virt[n]; ok && ov != v {
					return fmt.Sprintf("rep %d %s = %v, earlier rep = %v", i+1, n, v, ov)
				}
			}
		}
	}
	return ""
}

// layerMetrics folds the traced reps into the per-layer figures: virtual
// counts from the first traced rep (all traced reps agree), host figures
// as medians over traced reps, and the tracing overhead against the
// untraced reps of the same seed.
func layerMetrics(reps []*rep) map[string]metric {
	var traced, plain []*rep
	for _, r := range reps {
		if r.spans != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	hosts := map[string][]float64{}
	for _, r := range traced {
		for n, v := range hostLayers(r) {
			hosts[n] = append(hosts[n], v)
		}
	}
	// A figure a workload never produces (no forks on http-fleet, no
	// spans of another workload's calls) reads 0.
	out := map[string]metric{}
	for _, n := range perLayerNames {
		v := traced[0].virt[n]
		if strings.Contains(n, "host") {
			v = median(hosts[n])
		}
		out[n] = metric{v, unitOf(n)}
	}
	var tm, pm []float64
	for _, r := range traced {
		tm = append(tm, r.measure.Seconds())
	}
	for _, r := range plain {
		pm = append(pm, r.measure.Seconds())
	}
	out["trace.overhead_frac"] = metric{median(tm)/median(pm) - 1, "fraction"}
	return out
}

// hostLayers derives one traced rep's host figures: profile self time per
// layer (its sample share times the measured phase's CPU time), and mean
// host durations of the spans that bracket calls into a layer.
func hostLayers(r *rep) map[string]float64 {
	out := map[string]float64{}
	for n, v := range r.host {
		out[n] = v
	}
	cpu := r.cpu.Seconds()
	self, cum := profileShares(r.prof)
	for _, l := range layers {
		out[l+".host_self_s"] = self[l] * cpu
		out[l+".host_cum_s"] = cum[l] * cpu
	}
	out["kernel.host_self_s"] += out["kernel.vfs.host_self_s"] + out["kernel.memaccess.host_self_s"]
	out["runtime.host_self_s"] = self[layerRuntime] * cpu
	out["alloc.host_ns_per_free"] = ratio(out["alloc.host_cum_s"]*1e9, r.virt["alloc.frees"])

	st := r.spans.stats()
	out["kvstore.get_host_us"] = float64(st["kvstore.Get"].hostMean().Nanoseconds()) / 1e3
	out["kvstore.set_host_us"] = float64(st["kvstore.Set"].hostMean().Nanoseconds()) / 1e3
	out["kvstore.save_host_s"] = st["kvstore.Save"].hostMean().Seconds()
	out["faas.child_run_host_ms"] = float64(st["minipy.CallIndex"].hostMean().Nanoseconds()) / 1e6
	req := st["httpd.DoRequest"]
	put := st["httpd.DoPut"]
	out["httpd.request_host_us"] = ratio(float64((req.HostTotal+put.HostTotal).Nanoseconds())/1e3, float64(req.Count+put.Count))
	printSpanTable(st)
	printShares("self", self, cpu)
	printShares("cumulative", cum, cpu)
	return out
}

func printSpanTable(st map[string]spanStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("spans: name count host_total_s host_self_s virt_mean_us")
	for _, n := range names {
		s := st[n]
		fmt.Printf("  %-18s %7d %10.4f %10.4f %12.3f\n", n, s.Count, s.HostTotal.Seconds(), s.HostSelf.Seconds(), us(s.virtMean()))
	}
}

func printShares(kind string, shares map[string]float64, cpu float64) {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Printf("host CPU by layer, %s (%.3f s measured):", kind, cpu)
	for _, n := range names {
		fmt.Printf(" %s=%.1f%%", n, 100*shares[n])
	}
	fmt.Println()
}

func printRep(i int, traced bool, r *rep) {
	v := virtMetrics(r)
	fmt.Printf("rep %d traced=%v: setup %.3f s, measure %.3f s (cpu %.3f s, %d ops, %d failed), virt %.0f ops/s p50 %.3f us p99 %.3f us\n",
		i, traced, r.setup.Seconds(), r.measure.Seconds(), r.cpu.Seconds(), r.attempted, r.failed,
		v["virt_ops_per_s"].Value, v["virt_p50_us"].Value, v["virt_p99_us"].Value)
}

func lateFrac(late []sim.Time) float64 {
	n := 0
	for _, l := range late {
		if l > 0 {
			n++
		}
	}
	return ratio(float64(n), float64(len(late)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// peakRSSMiB is the process's peak resident set. One process runs one
// workload, so nothing carries over from another.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
