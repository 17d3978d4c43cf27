package kernel_test

import (
	"bytes"
	"errors"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/flight"
	"ufork/internal/vm"
)

// newRecordedKernel is newKernel with a private, enabled flight recorder,
// so a test can read back which faults a μprocess took and in what order.
func newRecordedKernel() (*kernel.Kernel, *flight.Recorder) {
	fr := flight.New(1, 1<<14)
	fr.Enable()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
		Flight:    fr,
	})
	return k, fr
}

// takenFault is one page fault as the flight recorder saw it.
type takenFault struct {
	kind vm.FaultKind
	va   uint64
}

// faultsSince returns the faults pid took after flight sequence seq.
func faultsSince(fr *flight.Recorder, pid kernel.PID, seq uint64) []takenFault {
	var out []takenFault
	for _, e := range fr.Snapshot() {
		if e.Seq > seq && e.PID == int32(pid) && e.Kind == flight.KindFault {
			out = append(out, takenFault{vm.FaultKind(e.Args[0]), e.Args[1]})
		}
	}
	return out
}

// faultCounts is the pair of counters every translated fault bumps: the
// kernel's page-fault count and the address space's vm fault total.
func faultCounts(k *kernel.Kernel, p *kernel.Proc) [2]uint64 {
	return [2]uint64{k.Stats.PageFaults.Value(), p.AS.Stats.FaultTotal()}
}

// TestZeroLengthAccessTranslatesNothing pins that an empty Load or Store
// checks its capability and touches no page: not a text page a store
// would fault on, and not the unmapped page at the top of the region.
func TestZeroLengthAccessTranslatesNothing(t *testing.T) {
	k, _ := newRecordedKernel()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		text := p.DDC.SetAddr(p.Layout.SegBase(p.Region.Base, kernel.SegText))
		top := p.DDC.SetAddr(p.DDC.Top())
		if p.AS.Lookup(vm.VPNOf(p.DDC.Top())) != nil {
			t.Errorf("page at region top %#x is mapped", p.DDC.Top())
			return
		}
		before := faultCounts(k, p)
		for _, access := range []struct {
			name string
			do   func() error
		}{
			{"store-nil-text", func() error { return p.Store(text, 0, nil) }},
			{"store-empty-text", func() error { return p.Store(text, 0, []byte{}) }},
			{"load-nil-top", func() error { return p.Load(top, 0, nil) }},
			{"store-nil-top", func() error { return p.Store(top, 0, nil) }},
		} {
			if err := access.do(); err != nil {
				t.Errorf("%s: %v", access.name, err)
			}
			if got := faultCounts(k, p); got != before {
				t.Errorf("%s: [page faults, vm faults] %v -> %v", access.name, before, got)
			}
		}
		// The same store with one byte does translate, and faults.
		if err := p.Store(text, 0, []byte{1}); !errors.Is(err, kernel.ErrSegfault) {
			t.Errorf("one-byte text store: got %v, want segfault", err)
		}
		if got := faultCounts(k, p); got[0] != before[0]+1 || got[1] != before[1]+1 {
			t.Errorf("one-byte text store: [page faults, vm faults] %v -> %v, want one each", before, got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestSinglePageStoreFaultsOnce: a forked child's first store to a heap
// page it shares with its parent takes one write-protect fault, then the
// store lands; later stores to the now-private page take none.
func TestSinglePageStoreFaultsOnce(t *testing.T) {
	k, fr := newRecordedKernel()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if err := p.StoreU64(p.HeapCap, 0, 0x1111); err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			before, seq := faultCounts(k, c), fr.Seq()
			if err := c.StoreU64(c.HeapCap, 64, 0x2222); err != nil {
				t.Errorf("child store: %v", err)
				return
			}
			want := []takenFault{{vm.FaultWriteProtect, c.HeapCap.Addr() + 64}}
			if got := faultsSince(fr, c.PID, seq); !equalFaults(got, want) {
				t.Errorf("faults = %v, want %v", got, want)
			}
			if got := faultCounts(k, c); got[0] != before[0]+1 || got[1] != before[1]+1 {
				t.Errorf("[page faults, vm faults] %v -> %v, want one each", before, got)
			}
			after := faultCounts(k, c)
			if err := c.StoreU64(c.HeapCap, 72, 0x3333); err != nil {
				t.Error(err)
				return
			}
			for off, want := range map[uint64]uint64{0: 0x1111, 64: 0x2222, 72: 0x3333} {
				if v, err := c.LoadU64(c.HeapCap, off); err != nil || v != want {
					t.Errorf("child heap+%d = %#x, %v; want %#x", off, v, err, want)
				}
			}
			if got := faultCounts(k, c); got != after {
				t.Errorf("stores to the private page faulted: %v -> %v", after, got)
			}
			k.Exit(c, 0)
		}); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if v, err := p.LoadU64(p.HeapCap, 64); err != nil || v != 0 {
			t.Errorf("parent heap+64 = %#x, %v; the child's store leaked", v, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestPageStraddlingAccess: an access crossing a page boundary translates
// each page in address order. A straddling load of shared pages takes no
// fault and sees the parent's bytes; a straddling store faults once per
// still-shared page, lower page first.
func TestPageStraddlingAccess(t *testing.T) {
	k, fr := newRecordedKernel()
	const page = kernel.PageSize
	pattern := func(seed byte) []byte {
		b := make([]byte, 24)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for pg := uint64(1); pg <= 3; pg++ {
			if err := p.StoreU64(p.HeapCap, pg*page, pg); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Store(p.HeapCap, 2*page-8, pattern(0x10)); err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			heap := c.HeapCap.Addr()
			got := make([]byte, 24)
			before, seq := faultCounts(k, c), fr.Seq()
			if err := c.Load(c.HeapCap, 2*page-8, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, pattern(0x10)) {
				t.Errorf("straddling load = %x, want %x", got, pattern(0x10))
			}
			if f := faultsSince(fr, c.PID, seq); len(f) != 0 || faultCounts(k, c) != before {
				t.Errorf("straddling load of shared pages faulted: %v", f)
			}

			// Both pages shared: two write-protect faults, in address order.
			seq = fr.Seq()
			if err := c.Store(c.HeapCap, 2*page-8, pattern(0x40)); err != nil {
				t.Error(err)
				return
			}
			want := []takenFault{{vm.FaultWriteProtect, heap + 2*page - 8}, {vm.FaultWriteProtect, heap + 2*page}}
			if f := faultsSince(fr, c.PID, seq); !equalFaults(f, want) {
				t.Errorf("straddling store faults = %v, want %v", f, want)
			}
			// Lower page now private, upper still shared: one fault, at the
			// upper page's first byte.
			seq = fr.Seq()
			if err := c.Store(c.HeapCap, 3*page-4, pattern(0x70)[:8]); err != nil {
				t.Error(err)
				return
			}
			want = []takenFault{{vm.FaultWriteProtect, heap + 3*page}}
			if f := faultsSince(fr, c.PID, seq); !equalFaults(f, want) {
				t.Errorf("half-private straddling store faults = %v, want %v", f, want)
			}
			if got := faultCounts(k, c); got[0] != before[0]+3 || got[1] != before[1]+3 {
				t.Errorf("[page faults, vm faults] %v -> %v, want three each", before, got)
			}
			if err := c.Load(c.HeapCap, 2*page-8, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, pattern(0x40)) {
				t.Errorf("load after straddling store = %x, want %x", got, pattern(0x40))
			}
			got8 := make([]byte, 8)
			if err := c.Load(c.HeapCap, 3*page-4, got8); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got8, pattern(0x70)[:8]) {
				t.Errorf("load after half-private store = %x, want %x", got8, pattern(0x70)[:8])
			}
			k.Exit(c, 0)
		}); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 24)
		if err := p.Load(p.HeapCap, 2*page-8, got); err != nil || !bytes.Equal(got, pattern(0x10)) {
			t.Errorf("parent bytes = %x, %v; want %x", got, err, pattern(0x10))
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestGranuleStoreKeepsNeighbourTag: a 16-byte data store clears the tag
// of the granule it writes and no other.
func TestGranuleStoreKeepsNeighbourTag(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for _, off := range []uint64{0, cap.GranuleSize} {
			if err := p.StoreCap(p.HeapCap, off, p.DataCap); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Store(p.HeapCap, 0, make([]byte, cap.GranuleSize)); err != nil {
			t.Error(err)
			return
		}
		pfn := p.AS.Lookup(vm.VPNOf(p.HeapCap.Addr())).Page.PFN
		base := vm.PageOff(p.HeapCap.Addr())
		for off, want := range map[uint64]bool{0: false, cap.GranuleSize: true} {
			if tag, err := k.Mem.TagAt(pfn, base+off); err != nil || tag != want {
				t.Errorf("tag at heap+%d = %v, %v; want %v", off, tag, err, want)
			}
		}
		if c, err := p.LoadCap(p.HeapCap, cap.GranuleSize); err != nil || !c.Equal(p.DataCap) {
			t.Errorf("neighbour capability = %v, %v; want %v", c, err, p.DataCap)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func equalFaults(a, b []takenFault) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memAccessOps are the simulated accesses BenchmarkMemAccess times and
// TestMemAccessAllocFree pins, each on one warm heap page.
var memAccessOps = []struct {
	name string
	do   func(p *kernel.Proc, buf []byte) error
}{
	{"LoadU64", func(p *kernel.Proc, _ []byte) error { _, err := p.LoadU64(p.HeapCap, 32); return err }},
	{"StoreU64", func(p *kernel.Proc, _ []byte) error { return p.StoreU64(p.HeapCap, 32, 7) }},
	{"Load16", func(p *kernel.Proc, buf []byte) error { return p.Load(p.HeapCap, 32, buf) }},
	{"LoadCap", func(p *kernel.Proc, _ []byte) error { _, err := p.LoadCap(p.HeapCap, 0); return err }},
	{"StoreCap", func(p *kernel.Proc, _ []byte) error { return p.StoreCap(p.HeapCap, 0, p.DataCap) }},
}

// withWarmHeap runs fn in a μprocess whose first heap page is mapped,
// private and holds a capability at offset 0.
func withWarmHeap(tb testing.TB, fn func(p *kernel.Proc)) {
	k := newKernel(1, kernel.IsolationFull)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if err := p.StoreCap(p.HeapCap, 0, p.DataCap); err != nil {
			tb.Error(err)
			return
		}
		if err := p.StoreU64(p.HeapCap, 32, 1); err != nil {
			tb.Error(err)
			return
		}
		fn(p)
	}); err != nil {
		tb.Fatal(err)
	}
	k.Run()
}

// TestMemAccessAllocFree pins the host cost of a simulated access as a
// count: none of them allocates.
func TestMemAccessAllocFree(t *testing.T) {
	withWarmHeap(t, func(p *kernel.Proc) {
		buf := make([]byte, 16)
		for _, op := range memAccessOps {
			var err error
			if n := testing.AllocsPerRun(100, func() { err = op.do(p, buf) }); n != 0 {
				t.Errorf("%s: %v allocations per access, want 0", op.name, n)
			}
			if err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
		}
	})
}

// BenchmarkMemAccess is the informational host cost of one simulated
// access on a warm page.
//
//	go test ./internal/kernel -run xxx -bench MemAccess -benchmem
func BenchmarkMemAccess(b *testing.B) {
	for _, op := range memAccessOps {
		b.Run(op.name, func(b *testing.B) {
			withWarmHeap(b, func(p *kernel.Proc) {
				buf := make([]byte, 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.do(p, buf); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
		})
	}
}
