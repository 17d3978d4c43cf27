package tmem

import (
	"testing"

	"ufork/internal/cap"
)

// shared reports whether frame pfn still shares the zero frame.
func shared(m *Memory, pfn PFN) bool { return m.frames[pfn] == &zeroFrame }

// mustAlloc allocates n zeroed frames.
func mustAlloc(t *testing.T, m *Memory, n int) []PFN {
	t.Helper()
	pfns := make([]PFN, n)
	for i := range pfns {
		pfn, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		pfns[i] = pfn
	}
	return pfns
}

// checkZero asserts frame pfn reads as zeros with no tags.
func checkZero(t *testing.T, m *Memory, pfn PFN) {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := m.ReadBytes(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("frame %d byte %d = %#x, want 0", pfn, i, b)
		}
	}
	if n, _ := m.CountTags(pfn); n != 0 {
		t.Fatalf("frame %d CountTags = %d", pfn, n)
	}
	if offs := taggedOffsets(t, m, pfn); len(offs) != 0 {
		t.Fatalf("frame %d tagged granules %v", pfn, offs)
	}
	c, err := m.LoadCap(pfn, 64)
	if err != nil || c.Tag() || c.Addr() != 0 {
		t.Fatalf("frame %d LoadCap = %v, %v; want an untagged zero", pfn, c, err)
	}
	if err := m.AuditFrame(pfn); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAllocatedFrameSharesZero(t *testing.T) {
	m := New(4)
	pfns := mustAlloc(t, m, 3)
	for _, pfn := range pfns {
		if !shared(m, pfn) {
			t.Fatalf("frame %d has storage before any write", pfn)
		}
		checkZero(t, m, pfn)
	}
	if m.Allocated() != 3 || m.PeakAllocated() != 3 {
		t.Fatalf("allocated=%d peak=%d, want 3/3", m.Allocated(), m.PeakAllocated())
	}
	// Copy destinations are backed at allocation: parallel fork workers
	// write them without touching the pool.
	dst, err := m.AllocFrameForCopy()
	if err != nil {
		t.Fatal(err)
	}
	if shared(m, dst) {
		t.Fatal("AllocFrameForCopy frame shares the zero frame")
	}
}

// TestEveryWritePathBacksTheFrame writes a never-written frame through
// each write path: the frame gets storage of its own, the write lands, and
// its never-written neighbour and the shared zero frame stay zero.
func TestEveryWritePathBacksTheFrame(t *testing.T) {
	c := cap.Root(0x4000, 64)
	writes := map[string]func(m *Memory, pfn, src PFN) error{
		"WriteBytes": func(m *Memory, pfn, _ PFN) error { return m.WriteBytes(pfn, 8, []byte{1}) },
		"StoreCap":   func(m *Memory, pfn, _ PFN) error { return m.StoreCap(pfn, 32, c) },
		"RewriteCap": func(m *Memory, pfn, _ PFN) error { return m.RewriteCap(pfn, 32, c) },
		"CopyFrame":  func(m *Memory, pfn, src PFN) error { return m.CopyFrame(pfn, src) },
		"InjectTagFlip": func(m *Memory, pfn, _ PFN) error {
			return m.InjectTagFlip(pfn, 2)
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			m := New(3)
			pfns := mustAlloc(t, m, 3)
			pfn, other, src := pfns[0], pfns[1], pfns[2]
			if err := m.StoreCap(src, 32, c); err != nil {
				t.Fatal(err)
			}
			if err := write(m, pfn, src); err != nil {
				t.Fatal(err)
			}
			if shared(m, pfn) {
				t.Fatal("written frame still shares the zero frame")
			}
			if name == "WriteBytes" {
				buf := []byte{0}
				if err := m.ReadBytes(pfn, 8, buf); err != nil || buf[0] != 1 {
					t.Fatalf("read back %v, %v", buf, err)
				}
			} else if tag, _ := m.TagAt(pfn, 32); name != "InjectTagFlip" && !tag {
				t.Fatal("stored capability lost its tag")
			}
			if name == "InjectTagFlip" && m.AuditFrame(pfn) == nil {
				t.Fatal("AuditFrame missed the injected tag flip")
			}
			checkZero(t, m, other)
			if !shared(m, other) || !SharedZeroIntact() {
				t.Fatal("a write reached the shared zero frame")
			}
		})
	}
}

// TestFreeNeverWrittenFrame: freeing a never-written frame pools nothing,
// poisoning leaves the zero frame alone, and a written frame is poisoned
// and pooled as before.
func TestFreeNeverWrittenFrame(t *testing.T) {
	m := New(2)
	m.SetHooks(&Hooks{PoisonFreed: true})
	pfns := mustAlloc(t, m, 2)
	if err := m.WriteBytes(pfns[1], 0, []byte("live")); err != nil {
		t.Fatal(err)
	}
	written := m.frames[pfns[1]]
	if err := m.FreeFrame(pfns[0]); err != nil {
		t.Fatal(err)
	}
	if len(m.pool) != 0 || !SharedZeroIntact() {
		t.Fatalf("never-written free: pool %d, zero frame intact %v", len(m.pool), SharedZeroIntact())
	}
	if err := m.FreeFrame(pfns[1]); err != nil {
		t.Fatal(err)
	}
	if len(m.pool) != 1 || m.pool[0] != written || written.Data[0] != poisonByte {
		t.Fatal("a written frame must be poisoned and pooled on free")
	}
	if m.Allocated() != 0 || m.FreeFrames() != 2 {
		t.Fatalf("allocated=%d free=%d", m.Allocated(), m.FreeFrames())
	}
	// The pooled frame backs the next write, reset to zero.
	pfn, _ := m.AllocFrame()
	if err := m.WriteBytes(pfn, 100, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if m.frames[pfn] != written || len(m.pool) != 0 {
		t.Fatal("the first write did not reuse the pooled frame")
	}
	buf := make([]byte, PageSize)
	if err := m.ReadBytes(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		want := byte(0)
		if i == 100 {
			want = 7
		}
		if b != want {
			t.Fatalf("byte %d = %#x after reuse, want %#x", i, b, want)
		}
	}
}

// TestCopyNeverWrittenIntoNeverWritten: the copy stays unbacked but is
// accounted and observed exactly like any other copy.
func TestCopyNeverWrittenIntoNeverWritten(t *testing.T) {
	m := New(3)
	var observed int
	m.SetCopyObserver(func(dst, src PFN) { observed++ })
	pfns := mustAlloc(t, m, 2)
	before := m.BytesMoved()
	if err := m.CopyFrame(pfns[1], pfns[0]); err != nil {
		t.Fatal(err)
	}
	if !shared(m, pfns[1]) {
		t.Fatal("zero-to-zero copy gave the destination storage")
	}
	if got := m.BytesMoved() - before; got != PageSize+TagPlaneBytes || observed != 1 {
		t.Fatalf("moved %d bytes, %d observer calls; want %d, 1", got, observed, PageSize+TagPlaneBytes)
	}
	checkZero(t, m, pfns[1])
	// A never-written source into a written destination clears it.
	dst, _ := m.AllocFrameForCopy()
	if err := m.WriteBytes(dst, 0, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyFrame(dst, pfns[0]); err != nil {
		t.Fatal(err)
	}
	checkZero(t, m, dst)
}
