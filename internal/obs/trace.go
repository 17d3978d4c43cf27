package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// DefaultTraceEvents is the default ring-buffer capacity: enough for every
// fork in a full benchmark sweep while bounding memory for long runs.
const DefaultTraceEvents = 1 << 18

// Arg is one key/value annotation on a trace event. Args are a slice, not
// a map, so event serialization is deterministic (golden-file testable).
// A non-empty Str is the value in place of Val.
type Arg struct {
	Key string
	Val uint64
	Str string
}

// A is a convenience constructor for a numeric Arg.
func A(key string, val uint64) Arg { return Arg{Key: key, Val: val} }

// S is a convenience constructor for a string Arg.
func S(key, val string) Arg { return Arg{Key: key, Str: val} }

// Event is one trace record. Phase follows the Chrome trace_event
// vocabulary: 'X' complete (has Dur), 'i' instant, 's'/'f' flow start
// and finish (paired by ID). The tracer records only complete events;
// the flight recorder and the causal plane write the other phases
// through WriteChrome.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TS    uint64 // virtual ns
	Dur   uint64 // virtual ns ('X' only)
	PID   int
	TID   int
	ID    uint64 // flow id ('s'/'f' only)
	Args  []Arg
}

// Track names one row of an exported trace: a process when TID < 0,
// else a thread of PID.
type Track struct {
	PID, TID int
	Name     string
}

// Tracer records complete spans into a fixed-capacity ring buffer; when
// the ring wraps, the oldest events are dropped (counted in Dropped). A
// span is recorded once, by whoever sees its end, with Complete.
// Timestamps are caller-provided sim-clock nanoseconds, so the tracer
// itself never perturbs virtual time.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of oldest event
	n       int // live events
	dropped uint64
	names   map[[2]int]string // track names by (pid, tid); tid -1 names a process
}

// NewTracer creates a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, 0, capacity), names: make(map[[2]int]string)}
}

// SetProcName names a pid for the exported trace.
func (t *Tracer) SetProcName(pid int, name string) { t.setName(pid, -1, name) }

// SetThreadName names a (pid, tid) track for the exported trace.
func (t *Tracer) SetThreadName(pid, tid int, name string) { t.setName(pid, tid, name) }

func (t *Tracer) setName(pid, tid int, name string) {
	t.mu.Lock()
	t.names[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// push appends an event, evicting the oldest when full. Caller holds mu.
func (t *Tracer) push(ev Event) {
	if t.n < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.n++
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % cap(t.buf)
	t.dropped++
}

// Complete records the span [ts, ts+dur) as one complete ('X') event. A
// nil or disabled tracer records nothing.
func (t *Tracer) Complete(pid, tid int, name, cat string, ts, dur uint64, args ...Arg) {
	if t == nil || !On() {
		return
	}
	t.mu.Lock()
	t.push(Event{Name: name, Cat: cat, Phase: 'X', TS: ts, Dur: dur,
		PID: pid, TID: tid, Args: args})
	t.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%cap(t.buf)])
	}
	return out
}

// Dropped returns the number of events evicted by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all events (names are kept).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = t.buf[:0]
	t.start, t.n = 0, 0
	t.dropped = 0
}

// WriteChromeTrace serializes the buffer with WriteChrome: track names
// first (processes, then threads, each sorted), then events oldest-first.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	tracks := make([]Track, 0, len(t.names))
	for id, name := range t.names {
		tracks = append(tracks, Track{PID: id[0], TID: id[1], Name: name})
	}
	t.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool {
		a, b := tracks[i], tracks[j]
		if (a.TID < 0) != (b.TID < 0) {
			return a.TID < 0
		}
		return a.PID < b.PID || a.PID == b.PID && a.TID < b.TID
	})
	return WriteChrome(w, tracks, t.Events())
}

// WriteChrome writes tracks and events, in the order given, in the Chrome
// trace_event JSON object format ({"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto. It is the one trace_event writer: the
// tracer, the flight recorder and the causal plane all export through
// it. Virtual nanoseconds map to trace microseconds with three decimals,
// so 1 ns of sim time is 0.001 µs on the timeline, and equal input
// writes equal bytes.
func WriteChrome(w io.Writer, tracks []Track, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for _, m := range tracks {
		sep()
		if m.TID < 0 {
			fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%s}}",
				m.PID, strconv.Quote(m.Name))
		} else {
			fmt.Fprintf(bw, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
				m.PID, m.TID, strconv.Quote(m.Name))
		}
	}
	for _, ev := range events {
		sep()
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"ts\":%s,\"pid\":%d,\"tid\":%d",
			strconv.Quote(ev.Name), strconv.Quote(ev.Cat), ev.Phase, usec(ev.TS), ev.PID, ev.TID)
		switch ev.Phase {
		case 'X':
			fmt.Fprintf(bw, ",\"dur\":%s", usec(ev.Dur))
		case 'i':
			bw.WriteString(",\"s\":\"t\"")
		case 's':
			fmt.Fprintf(bw, ",\"id\":%d", ev.ID)
		case 'f':
			// Bind the arrow to the slice enclosing its timestamp.
			fmt.Fprintf(bw, ",\"id\":%d,\"bp\":\"e\"", ev.ID)
		}
		if len(ev.Args) > 0 {
			bw.WriteString(",\"args\":{")
			for i, a := range ev.Args {
				if i > 0 {
					bw.WriteString(",")
				}
				if a.Str != "" {
					fmt.Fprintf(bw, "%s:%s", strconv.Quote(a.Key), strconv.Quote(a.Str))
				} else {
					fmt.Fprintf(bw, "%s:%d", strconv.Quote(a.Key), a.Val)
				}
			}
			bw.WriteString("}")
		}
		bw.WriteString("}")
	}
	bw.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// usec formats virtual nanoseconds as microseconds with ns precision.
func usec(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1000.0, 'f', 3, 64)
}
