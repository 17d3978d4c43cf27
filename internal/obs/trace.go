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
// and finish (paired by ID).
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

type openSpan struct {
	serial uint64
	name   string
}

// Tracer records spans and instant events into a fixed-capacity ring
// buffer; when the ring wraps, the oldest events are dropped (counted in
// Dropped). Timestamps are caller-provided sim-clock nanoseconds, so the
// tracer itself never perturbs virtual time.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of oldest event
	n       int // live events
	serial  uint64
	dropped uint64
	// open tracks per-(pid,tid) begin/end pairing: spans on one thread
	// must close LIFO for the trace to nest.
	open      map[uint64][]openSpan
	mispaired uint64
	procName  map[int]string
	thrName   map[uint64]string
}

// NewTracer creates a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		buf:      make([]Event, 0, capacity),
		open:     make(map[uint64][]openSpan),
		procName: make(map[int]string),
		thrName:  make(map[uint64]string),
	}
}

func threadKey(pid, tid int) uint64 { return uint64(uint32(pid))<<32 | uint64(uint32(tid)) }

// SetProcName names a pid for the exported trace.
func (t *Tracer) SetProcName(pid int, name string) {
	t.mu.Lock()
	t.procName[pid] = name
	t.mu.Unlock()
}

// SetThreadName names a (pid, tid) track for the exported trace.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	t.mu.Lock()
	t.thrName[threadKey(pid, tid)] = name
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

// Span is an in-flight interval returned by Begin. The zero value is
// inert: End on it is a no-op, which is what Begin returns when tracing
// is off so call sites need no second guard.
type Span struct {
	tr     *Tracer
	serial uint64
	name   string
	cat    string
	pid    int
	tid    int
	start  uint64
}

// Active reports whether the span will record anything on End.
func (s Span) Active() bool { return s.tr != nil }

// Begin opens a span at sim-time ts. Spans on the same (pid, tid) must be
// ended in LIFO order; violations are counted in Mispaired.
func (t *Tracer) Begin(pid, tid int, name, cat string, ts uint64) Span {
	if t == nil || Disabled() {
		return Span{}
	}
	t.mu.Lock()
	t.serial++
	sp := Span{tr: t, serial: t.serial, name: name, cat: cat, pid: pid, tid: tid, start: ts}
	key := threadKey(pid, tid)
	t.open[key] = append(t.open[key], openSpan{serial: sp.serial, name: name})
	t.mu.Unlock()
	return sp
}

// End closes the span at sim-time ts, recording a complete ('X') event.
func (s Span) End(ts uint64, args ...Arg) {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	key := threadKey(s.pid, s.tid)
	stack := t.open[key]
	if n := len(stack); n > 0 && stack[n-1].serial == s.serial {
		t.open[key] = stack[:n-1]
	} else {
		// Out-of-order end: drop this span (and anything above it) from
		// the pairing stack and count the violation.
		t.mispaired++
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].serial == s.serial {
				t.open[key] = stack[:i]
				break
			}
		}
	}
	dur := uint64(0)
	if ts > s.start {
		dur = ts - s.start
	}
	t.push(Event{Name: s.name, Cat: s.cat, Phase: 'X', TS: s.start, Dur: dur,
		PID: s.pid, TID: s.tid, Args: args})
	t.mu.Unlock()
}

// Complete records a closed interval directly, bypassing pairing — used
// for phase breakdowns reconstructed from accumulated costs, where begin
// and end are known at once.
func (t *Tracer) Complete(pid, tid int, name, cat string, ts, dur uint64, args ...Arg) {
	if t == nil || Disabled() {
		return
	}
	t.mu.Lock()
	t.push(Event{Name: name, Cat: cat, Phase: 'X', TS: ts, Dur: dur,
		PID: pid, TID: tid, Args: args})
	t.mu.Unlock()
}

// Instant records a point event.
func (t *Tracer) Instant(pid, tid int, name, cat string, ts uint64, args ...Arg) {
	if t == nil || Disabled() {
		return
	}
	t.mu.Lock()
	t.push(Event{Name: name, Cat: cat, Phase: 'i', TS: ts,
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

// OpenSpans returns the number of begun-but-not-ended spans.
func (t *Tracer) OpenSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.open {
		n += len(s)
	}
	return n
}

// Mispaired returns the number of LIFO-pairing violations observed.
func (t *Tracer) Mispaired() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mispaired
}

// Dropped returns the number of events evicted by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all events and pairing state (names are kept).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = t.buf[:0]
	t.start, t.n = 0, 0
	t.dropped, t.mispaired, t.serial = 0, 0, 0
	t.open = make(map[uint64][]openSpan)
}

// WriteChromeTrace serializes the buffer with WriteChrome: track names
// first (processes, then threads, each sorted), then events oldest-first.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	procs := make([]int, 0, len(t.procName))
	for pid := range t.procName {
		procs = append(procs, pid)
	}
	sort.Ints(procs)
	thrs := make([]uint64, 0, len(t.thrName))
	for key := range t.thrName {
		thrs = append(thrs, key)
	}
	sort.Slice(thrs, func(i, j int) bool { return thrs[i] < thrs[j] })
	var tracks []Track
	for _, pid := range procs {
		tracks = append(tracks, Track{PID: pid, TID: -1, Name: t.procName[pid]})
	}
	for _, key := range thrs {
		tracks = append(tracks, Track{PID: int(int32(key >> 32)), TID: int(int32(key)), Name: t.thrName[key]})
	}
	t.mu.Unlock()
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
