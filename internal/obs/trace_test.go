package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// withObs enables the layer for one test and restores the default off
// state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestSpanDisabledInert(t *testing.T) {
	Disable()
	tr := NewTracer(16)
	tr.Complete(1, 1, "c", "t", 0, 5)
	if got := len(tr.Events()); got != 0 {
		t.Errorf("disabled tracer recorded %d events", got)
	}
	// A nil tracer must also be inert: kernels without obs pass nil around.
	var nilTr *Tracer
	Enable()
	t.Cleanup(Disable)
	nilTr.Complete(1, 1, "c", "t", 0, 1)
}

func TestRingEviction(t *testing.T) {
	withObs(t)
	tr := NewTracer(2)
	tr.Complete(1, 1, "e0", "t", 0, 1)
	tr.Complete(1, 1, "e1", "t", 10, 1)
	tr.Complete(1, 1, "e2", "t", 20, 1)
	if tr.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Name != "e1" || evs[1].Name != "e2" {
		t.Errorf("ring contents = %+v, want [e1 e2]", evs)
	}
}

func TestTracerReset(t *testing.T) {
	withObs(t)
	tr := NewTracer(1)
	tr.Complete(1, 1, "evicted", "t", 0, 1)
	tr.Complete(1, 1, "done", "t", 0, 1)
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Errorf("Reset left state: events=%d dropped=%d", len(tr.Events()), tr.Dropped())
	}
}

// goldenInstant is the golden trace's one instant event. The tracer
// records only complete spans, so it reaches the trace through
// WriteChrome.
var goldenInstant = Event{Name: "ctx-switch", Cat: "sched", Phase: 'i', TS: 52000, PID: 1, TID: 1}

// buildGoldenTrace assembles a small deterministic trace exercising every
// serialized feature: metadata, nested spans, args, multiple tracks,
// sub-microsecond timestamps. Spans are recorded when they end, so the
// enclosing fork and fault spans follow the spans inside them.
func buildGoldenTrace() *Tracer {
	tr := NewTracer(64)
	tr.SetProcName(1, "redis (pid 1)")
	tr.SetProcName(2, "redis (pid 2)")
	tr.SetThreadName(1, 1, "task-1")
	tr.SetThreadName(2, 2, "task-2")

	tr.Complete(1, 1, "reserve", "fork", 1000, 0, A("region-base", 0x40000000), A("region-size", 0x200000))
	tr.Complete(1, 1, "pte-copy", "fork", 1000, 220, A("ptes", 180))
	tr.Complete(1, 1, "eager-copy", "fork", 1220, 3300, A("pages", 12), A("proactive", 12))
	tr.Complete(1, 1, "relocation-scan", "fork", 2420, 2100, A("caps", 96))
	tr.Complete(1, 1, "fork:uFork/CoPA", "syscall", 1000, 50814, A("child-pid", 2))
	tr.Complete(2, 2, "copy+relocate", "fault", 60100, 777, A("pages-copied", 1), A("caps", 3))
	tr.Complete(2, 2, "fault:cap-load", "vm", 60000, 1500, A("va", 0x40011008))
	return tr
}

// goldenTracks are the tracks buildGoldenTrace names, in export order.
var goldenTracks = []Track{
	{PID: 1, TID: -1, Name: "redis (pid 1)"},
	{PID: 2, TID: -1, Name: "redis (pid 2)"},
	{PID: 1, TID: 1, Name: "task-1"},
	{PID: 2, TID: 2, Name: "task-2"},
}

// writeGoldenTrace writes the golden trace: the tracer's tracks and
// spans, with goldenInstant after the fork span.
func writeGoldenTrace(w io.Writer) error {
	evs := buildGoldenTrace().Events()
	evs = append(evs[:5:5], append([]Event{goldenInstant}, evs[5:]...)...)
	return WriteChrome(w, goldenTracks, evs)
}

func TestWriteChromeTraceGolden(t *testing.T) {
	withObs(t)
	var buf bytes.Buffer
	if err := writeGoldenTrace(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/obs` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The tracer's own export writes the tracks it was given names for,
	// sorted, and then its spans.
	tr := buildGoldenTrace()
	var own, spans bytes.Buffer
	if err := tr.WriteChromeTrace(&own); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&spans, goldenTracks, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own.Bytes(), spans.Bytes()) {
		t.Errorf("tracer export:\n%s\nwant:\n%s", own.Bytes(), spans.Bytes())
	}
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	withObs(t)
	var buf bytes.Buffer
	if err := writeGoldenTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Dur  *float64        `json:"dur"`
			PID  int             `json:"pid"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var m, x, i int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			m++
		case "X":
			x++
			if ev.Dur == nil {
				t.Errorf("X event %q missing dur", ev.Name)
			}
		case "i":
			i++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if m != 4 || x != 7 || i != 1 {
		t.Errorf("phase counts M/X/i = %d/%d/%d, want 4/7/1", m, x, i)
	}
	// 1000 virtual ns must serialize as 1.000 trace µs.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "fork:uFork/CoPA" && ev.TS != 1.0 {
			t.Errorf("fork span ts = %v µs, want 1.000", ev.TS)
		}
	}
}
