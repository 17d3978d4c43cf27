package alloc_test

import (
	"fmt"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// withLiveBlocks runs fn in a fresh μprocess whose heap holds n live
// 16-byte blocks, returned in allocation order.
func withLiveBlocks(tb testing.TB, n int, fn func(k *kernel.Kernel, a *alloc.Allocator, blocks []cap.Capability)) {
	tb.Helper()
	spec := kernel.HelloWorldSpec()
	spec.AllocMetaPages = (n*32)/kernel.PageSize + 2
	spec.HeapPages = (n*16)/kernel.PageSize + 2
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			tb.Error(err)
			return
		}
		blocks := make([]cap.Capability, n)
		for i := range blocks {
			c, err := a.Alloc(16)
			if err != nil {
				tb.Errorf("alloc %d: %v", i, err)
				return
			}
			blocks[i] = c
		}
		fn(k, a, blocks)
	}); err != nil {
		tb.Fatal(err)
	}
	k.Run()
}

// TestFreeReadsConstantBytes pins Free's cost as a count instead of a
// host-time bound: the simulated-memory bytes a warm Free moves (loads
// and stores, the tmem.BytesMoved delta) are the same with 1k and 64k
// live blocks. The used-list walk it replaces read 16 bytes per block
// ahead of the target.
func TestFreeReadsConstantBytes(t *testing.T) {
	moved := map[int]uint64{}
	for _, n := range []int{1 << 10, 1 << 16} {
		withLiveBlocks(t, n, func(k *kernel.Kernel, a *alloc.Allocator, blocks []cap.Capability) {
			// Warm up with one free, then measure a block deep in the list.
			if err := a.Free(blocks[n/2+1]); err != nil {
				t.Error(err)
				return
			}
			before := k.Mem.BytesMoved()
			if err := a.Free(blocks[n/4]); err != nil {
				t.Error(err)
				return
			}
			moved[n] = k.Mem.BytesMoved() - before
		})
	}
	if moved[1<<10] == 0 || moved[1<<10] != moved[1<<16] {
		t.Fatalf("bytes moved per Free: %d at 1k live blocks, %d at 64k; want equal and nonzero",
			moved[1<<10], moved[1<<16])
	}
}

// BenchmarkFree frees a scattered live block and re-allocates it, at three
// heap populations. Informational: host time per op should not grow with
// the live-block count.
func BenchmarkFree(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("live=%dk", n>>10), func(b *testing.B) {
			withLiveBlocks(b, n, func(k *kernel.Kernel, a *alloc.Allocator, blocks []cap.Capability) {
				b.ResetTimer()
				j := 0
				for i := 0; i < b.N; i++ {
					j = (j + 7919) % n
					if err := a.Free(blocks[j]); err != nil {
						b.Error(err)
						return
					}
					c, err := a.Alloc(16)
					if err != nil {
						b.Error(err)
						return
					}
					blocks[j] = c
				}
			})
		})
	}
}
