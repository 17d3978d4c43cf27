package vmclone_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ufork/internal/kernel"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_fork.txt")

// TestForkGolden pins two vmclone forks byte for byte: each phase of the
// virtual-time latency, the pages copied, tmem's byte volume and frame
// counts, and a digest of what the child reads from its heap. Most of a
// clone's frames were never written; host-side storage sharing for those
// must not move any of these figures.
func TestForkGolden(t *testing.T) {
	k := newKernel()
	var out strings.Builder
	run(t, k, func(p *kernel.Proc) {
		// Dirty every fourth heap page and store one capability, so the
		// clone copies written and never-written frames alike.
		for off := uint64(0); off < p.HeapCap.Len(); off += 4 * kernel.PageSize {
			if err := p.Store(p.HeapCap, off+8, []byte(fmt.Sprintf("page@%d", off))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.StoreCap(p.HeapCap, 16*kernel.PageSize, p.DataCap); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			moved0 := k.Mem.BytesMoved()
			var digest uint64
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				buf := make([]byte, c.HeapCap.Len())
				if err := c.Load(c.HeapCap, 0, buf); err != nil {
					t.Errorf("child load: %v", err)
					return
				}
				h := fnv.New64a()
				h.Write(buf)
				digest = h.Sum64()
				if err := c.Store(c.HeapCap, kernel.PageSize+8, []byte("child")); err != nil {
					t.Errorf("child store: %v", err)
				}
			}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
			s := p.LastFork
			fmt.Fprintf(&out, "fork %d: latency=%d reserve=%d ptecopy=%d eagercopy=%d scan=%d reg=%d fixup=%d "+
				"ptes=%d pages=%d caps=%d bytes=%d allocated=%d peak=%d now=%d heap=%016x\n",
				i, s.Latency, s.ReserveTime, s.PTECopyTime, s.EagerCopyTime, s.ScanTime, s.RegTime, s.FixupTime,
				s.PTEsCopied, s.PagesCopied, s.CapsRelocated, k.Mem.BytesMoved()-moved0,
				k.Mem.Allocated(), k.Mem.PeakAllocated(), p.Now(), digest)
		}
	})
	path := filepath.Join("testdata", "golden_fork.txt")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("vmclone forks differ from %s\ngot:\n%s\nwant:\n%s", path, out.String(), want)
	}
}
