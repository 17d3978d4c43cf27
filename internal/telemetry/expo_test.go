package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/memmap"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedExposition builds a small, fully-determined exposition: two
// counters, a gauge, one histogram with hand-picked bounds, two procs,
// and flight meta counters. Everything WriteMetrics can render appears.
func fixedExposition() Exposition {
	h := obs.NewHistogram([]uint64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(500)
	h.Observe(50000) // overflow bucket
	return Exposition{
		Snap: obs.Snapshot{
			Counters: map[string]uint64{
				"syscall.fork":    12,
				"fault.total":     90,
				"weird-name.x/y!": 1, // exercises sanitize()
			},
			Gauges: map[string]int64{"frames.allocated": 640},
		},
		Hists: map[string]*obs.Histogram{"fork.latency": h},
		Procs: []kernel.ProcStat{
			{PID: 1, PPID: 0, Name: "init", SyscallsTotal: 40, Faults: 6,
				FaultCoW: 1, FaultCoA: 2, FaultCoPA: 3, FramesOwned: 10,
				FramesPeak: 12, Forks: 2, ForkBytesCopied: 8192,
				ForkCapsRelocated: 5, FaultCapsRelocated: 2, PeakBrkPages: 4},
			{PID: 2, PPID: 1, Name: `child "q"`, SyscallsTotal: 7,
				FaultMapped: 4, FramesOwned: 3, FramesPeak: 3, PeakBrkPages: 1},
		},
		FlightSeq:     777,
		FlightDropped: 13,
	}
}

// TestGoldenExposition pins the exposition byte-for-byte: the scrape
// format is an external contract, so a diff here means dashboards break.
func TestGoldenExposition(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMetrics(&b, fixedExposition()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_metrics.txt")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exposition differs from %s\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}

// TestExpositionLintClean feeds the rendered exposition through the lint
// pass CI uses: the producer and the validator must agree.
func TestExpositionLintClean(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMetrics(&b, fixedExposition()); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(&b); len(errs) != 0 {
		t.Fatalf("our own exposition fails lint: %v", errs)
	}
}

func TestExpositionEscapesLabelValues(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMetrics(&b, fixedExposition()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `proc="child \"q\""`) {
		t.Fatalf("proc name quotes not escaped:\n%s", b.String())
	}
}

func TestExpositionHistogramCumulative(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMetrics(&b, fixedExposition()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ufork_fork_latency_ns_bucket{le="100"} 1`,
		`ufork_fork_latency_ns_bucket{le="1000"} 3`,
		`ufork_fork_latency_ns_bucket{le="10000"} 3`,
		`ufork_fork_latency_ns_bucket{le="+Inf"} 4`,
		`ufork_fork_latency_ns_sum 51050`,
		`ufork_fork_latency_ns_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestMemmapExpositionLintClean: the ufork_memmap_* families must render
// lint-clean alongside everything else, and a nil Memmap must leave the
// exposition byte-identical to the plane-less rendering (the golden file
// pins that case separately).
func TestMemmapExpositionLintClean(t *testing.T) {
	e := fixedExposition()
	e.Memmap = &memmap.Snapshot{
		LiveFrames:     3,
		LiveByOrigin:   map[string]int{"image": 2, "cow": 1},
		AllocsByOrigin: map[string]uint64{"image": 2, "cow": 4},
		OwnerChanges:   4,
		Procs: []memmap.ProcNode{
			{PID: 1, Name: "init", RSSBytes: 8192, PSSBytes: 6144, USSBytes: 4096, SharedPages: 1, Children: []int32{2}},
			{PID: 2, PPID: 1, Name: `kid "z"`, Gen: 1, RSSBytes: 4096, PSSBytes: 2048, SharedPages: 1},
		},
	}
	var b bytes.Buffer
	if err := WriteMetrics(&b, e); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ufork_memmap_frames_live 3",
		`ufork_memmap_frames_by_origin{origin="cow"} 1`,
		`ufork_memmap_allocs_by_origin_total{origin="image"} 2`,
		"ufork_memmap_owner_changes_total 4",
		`ufork_memmap_proc_pss_bytes{pid="2",proc="kid \"z\""} 2048`,
		`ufork_memmap_proc_shared_pages{pid="1",proc="init"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if errs := Lint(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("memmap exposition fails lint: %v", errs)
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"fork.latency":  "fork_latency",
		"a-b/c d":       "a_b_c_d",
		"already_clean": "already_clean",
		"Caps123":       "Caps123",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHistogramRenderedUnderLoad renders a histogram while another
// goroutine keeps observing into it, as a live /metrics scrape does
// during a served run, and lints every rendering: each one must be a
// consistent histogram, with _count equal to its +Inf bucket.
func TestHistogramRenderedUnderLoad(t *testing.T) {
	h := obs.NewHistogram([]uint64{10, 100, 1000})
	e := Exposition{Hists: map[string]*obs.Histogram{"lock.hold": h}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(0); ; v++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(v % 2000)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var b bytes.Buffer
	for i := 0; i < 2000; i++ {
		b.Reset()
		if err := WriteMetrics(&b, e); err != nil {
			t.Fatal(err)
		}
		if errs := Lint(&b); len(errs) != 0 {
			t.Fatalf("rendering %d under concurrent observation fails lint: %v", i, errs)
		}
	}
}
