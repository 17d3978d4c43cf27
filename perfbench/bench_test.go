package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"ufork/internal/bench/ycsb"
	"ufork/internal/sim"
)

// small runs each workload at a test-sized op count.
var small = map[string]int{"kv-update": 400, "bgsave": 600, "faas-zygote": 200, "http-fleet": 800}

func runSmall(t *testing.T, name string, o opts) *rep {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	o.ops = small[name]
	r, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// Every oracle passes an honest run and fires when its results are
// corrupted on the way to it.
func TestOraclesFire(t *testing.T) {
	for _, tc := range []struct{ workload, sabotage string }{
		{"kv-update", sabotageRead},
		{"kv-update", sabotageDump},
		{"bgsave", sabotageDump},
		{"bgsave", sabotageRead},
		{"faas-zygote", sabotageReply},
		{"http-fleet", sabotageGet},
	} {
		t.Run(tc.workload+"/"+tc.sabotage, func(t *testing.T) {
			r := runSmall(t, tc.workload, opts{seed: 3, sabotage: tc.sabotage})
			if r.failed == 0 {
				t.Fatalf("sabotaged %s results passed the oracle (%d ops)", tc.sabotage, r.attempted)
			}
			t.Logf("%d of %d failed; first: %s", r.failed, r.attempted, r.failures[0])
		})
	}
	for name := range small {
		t.Run(name+"/honest", func(t *testing.T) {
			r := runSmall(t, name, opts{seed: 3})
			if r.failed != 0 || r.attempted != small[name] {
				t.Fatalf("%d of %d ops failed (want %d attempted): %v", r.failed, r.attempted, small[name], r.failures)
			}
		})
	}
}

// A seed's virtual figures repeat exactly across runs and between the
// untraced and the traced run, and the invariance check catches a
// difference.
func TestClockInvariance(t *testing.T) {
	for name := range small {
		t.Run(name, func(t *testing.T) {
			a := runSmall(t, name, opts{seed: 5})
			b := runSmall(t, name, opts{seed: 5})
			c := runSmall(t, name, opts{seed: 5, traced: true})
			d := runSmall(t, name, opts{seed: 5, traced: true})
			if msg := invariance([]*rep{a, b, c, d}); msg != "" {
				t.Fatal(msg)
			}
			c.end++
			if invariance([]*rep{a, c}) == "" {
				t.Fatal("invariance check missed a changed virtual window")
			}
			c.end--
			d.virt["kernel.syscalls"]++
			if invariance([]*rep{a, c, d}) == "" {
				t.Fatal("invariance check missed a changed layer count")
			}
		})
	}
}

// The generator is a pure function of its seed, offers the rate asked
// for, and draws different streams for different seeds.
func TestStreams(t *testing.T) {
	a := streams(7, 4, 5000, 100_000, ycsb.MixA, 1000)
	b := streams(7, 4, 5000, 100_000, ycsb.MixA, 1000)
	c := streams(8, 4, 5000, 100_000, ycsb.MixA, 1000)
	same, ids := true, map[int64]bool{}
	for s := range a {
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("stream %d op %d differs for one seed", s, i)
			}
			same = same && a[s][i] == c[s][i]
			ids[a[s][i].ID] = true
		}
		// 5000 arrivals at 25k/s per stream span about 200 ms.
		if end := a[s][len(a[s])-1].Due; end < 180*sim.Millisecond || end > 220*sim.Millisecond {
			t.Fatalf("stream %d ends at %v, want about 200ms", s, end)
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew the same streams")
	}
	if len(ids) != 4*5000 {
		t.Fatalf("%d distinct op IDs, want %d", len(ids), 4*5000)
	}
}

// The GET oracle accepts any version not yet known to be overwritten and
// rejects stale, unwritten or corrupted bodies.
func TestDocHistory(t *testing.T) {
	const n = 64
	h := newDocHistory(1)
	get := func(v int64, start, end int64) error { return h.checkGet(0, kvValue(0, v, n), n, start, end) }
	if err := get(0, h.tick(), h.tick()); err != nil {
		t.Fatalf("preloaded version rejected: %v", err)
	}
	h.putStart(0, 10, h.tick())
	gs := h.tick()
	if err := get(0, gs, h.tick()); err != nil {
		t.Fatalf("old version during a PUT rejected: %v", err)
	}
	if err := get(10, gs, h.tick()); err != nil {
		t.Fatalf("in-flight version rejected: %v", err)
	}
	if err := h.checkGet(0, nil, n, gs, h.tick()); err == nil {
		t.Fatal("empty body during a PUT accepted")
	}
	h.putEnd(0, 10, h.tick())
	if err := get(0, h.tick(), h.tick()); err == nil {
		t.Fatal("stale version accepted after the PUT was acknowledged")
	}
	if err := get(11, h.tick(), h.tick()); err == nil {
		t.Fatal("never-written version accepted")
	}
	if err := h.checkGet(0, nil, n, h.tick(), h.tick()); err == nil {
		t.Fatal("empty body with no PUT in flight accepted")
	}
	body := kvValue(0, 10, n)
	body[n-1] ^= 1
	if err := h.checkGet(0, body, n, h.tick(), h.tick()); err == nil {
		t.Fatal("corrupted body accepted")
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if held[w.name] == "" {
			listed = append(listed, w.name)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d that are not held", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if w.Name != listed[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, listed[i])
		}
	}
	for name := range held {
		if _, ok := findWorkload(name); !ok {
			t.Errorf("held workload %s does not exist", name)
		}
	}
	res := runSmall(t, "http-fleet", opts{seed: 1})
	e2e := virtMetrics(res)
	e2e["setup_s"] = metric{Unit: "s"}
	e2e["host_ops_per_s"] = metric{Unit: "ops/s"}
	e2e["host_peak_rss_mb"] = metric{Unit: "MiB"}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for _, m := range b.PerLayer {
		if u := unitOf(m.Name); u != m.Unit || !slices.Contains(perLayerNames, m.Name) {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, u)
		}
	}
}

// Self time subtracts the union of child intervals clipped to the parent.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {8, 12}, {20, 40}, {-5, 2}}
	if got := covered(ivs, 0, 30); got != 2+7+10 {
		t.Fatalf("covered = %d, want 19", got)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

var sink uint64

// The profile reader decodes a real CPU profile and charges this
// package's frames to the benchmark, not to a layer.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, _ := profileShares(samples)
	if shares[layerBench] < 0.5 {
		t.Fatalf("spin loop share %.2f, want most samples; shares %v", shares[layerBench], shares)
	}
	for _, tc := range []struct{ fn, file, want string }{
		{"ufork/internal/alloc.(*Allocator).Free", "alloc.go", "alloc"},
		{"ufork/internal/kernel.(*regularFile).writeAt", "vfs.go", "kernel.vfs"},
		{"ufork/internal/kernel.(*Proc).rw", "proc.go", "kernel.memaccess"},
		{"ufork/internal/kernel.(*Kernel).Fork", "syscall.go", "kernel"},
		{"ufork/internal/apps/kvstore.(*Store).Get", "kvstore.go", "kvstore"},
		{"ufork/internal/obs/causal.(*Plane).On", "causal.go", "obs"},
		{"runtime.chanrecv", "chan.go", "sim"},
		{"runtime.gcBgMarkWorker", "mgc.go", layerRuntime},
	} {
		stack := []frame{{"runtime.memmove", "memmove.s"}, {tc.fn, tc.file}, {"ufork/internal/sim.(*Task).body", "sim.go"}}
		if tc.want == "sim" || tc.want == layerRuntime {
			stack = []frame{{"runtime.memmove", "memmove.s"}, {tc.fn, tc.file}}
		}
		if got := attribute(stack); got != tc.want {
			t.Errorf("%s attributed to %s, want %s", tc.fn, got, tc.want)
		}
	}
}
