package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ufork/internal/sim"
)

// span is one bracketed call from the benchmark into a layer.
type span struct {
	ID        int32    `json:"id"`
	Parent    int32    `json:"parent"` // -1 for a root span
	Op        int64    `json:"op"`     // arrival ID the span serves; -1 for set-up
	Name      string   `json:"name"`
	HostStart int64    `json:"host_start_ns"` // since the run started
	HostEnd   int64    `json:"host_end_ns"`
	VirtStart sim.Time `json:"virt_start_ns"`
	VirtEnd   sim.Time `json:"virt_end_ns"`
}

// spanLog keeps a run's spans in memory. A nil *spanLog is the untraced
// run: every method is a no-op, so the untraced path pays one nil check
// per call site.
type spanLog struct {
	t0    time.Time
	spans []span
	roots map[int64]int32 // op → its root span, for spans opened on the server side
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), roots: map[int64]int32{}} }

// setRoot records id as op's root span.
func (l *spanLog) setRoot(op int64, id int32) {
	if l != nil {
		l.roots[op] = id
	}
}

// rootOf returns op's root span (-1 when untraced or unknown).
func (l *spanLog) rootOf(op int64) int32 {
	if l == nil {
		return -1
	}
	if id, ok := l.roots[op]; ok {
		return id
	}
	return -1
}

// begin opens a span and returns its ID (-1 when untraced).
func (l *spanLog) begin(name string, op int64, parent int32, virt sim.Time) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		HostStart: int64(time.Since(l.t0)), VirtStart: virt})
	return id
}

// end closes a span opened by begin.
func (l *spanLog) end(id int32, virt sim.Time) {
	if l == nil || id < 0 {
		return
	}
	s := &l.spans[id]
	s.HostEnd = int64(time.Since(l.t0))
	s.VirtEnd = virt
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count     int
	HostTotal time.Duration
	HostSelf  time.Duration // duration minus the part child spans cover
	VirtTotal sim.Time
}

func (s spanStat) hostMean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.HostTotal / time.Duration(s.Count)
}

func (s spanStat) virtMean() sim.Time {
	if s.Count == 0 {
		return 0
	}
	return s.VirtTotal / sim.Time(s.Count)
}

// stats folds closed spans by name. A span's self time is its host
// duration minus the union of its children's intervals clipped to it.
func (l *spanLog) stats() map[string]spanStat {
	if l == nil {
		return nil
	}
	children := make(map[int32][][2]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 && s.HostEnd > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.HostStart, s.HostEnd})
		}
	}
	out := make(map[string]spanStat)
	for _, s := range l.spans {
		if s.HostEnd == 0 {
			continue
		}
		dur := s.HostEnd - s.HostStart
		st := out[s.Name]
		st.Count++
		st.HostTotal += time.Duration(dur)
		st.HostSelf += time.Duration(dur - covered(children[s.ID], s.HostStart, s.HostEnd))
		st.VirtTotal += s.VirtEnd - s.VirtStart
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines under dir, one file per traced
// rep, headed by the host environment line.
func (l *spanLog) write(dir, name string, env hostEnv) (string, error) {
	if l == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return "", err
	}
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
