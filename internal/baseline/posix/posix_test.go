package posix_test

import (
	"testing"

	"ufork/internal/baseline/posix"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/vm"
)

func newKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.Posix(2),
		Engine:    posix.New(),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
}

func run(t *testing.T, k *kernel.Kernel, entry func(*kernel.Proc)) {
	t.Helper()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, entry); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestForkSameAddressesNewSpace(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			if c.Region.Base != p.Region.Base {
				t.Error("posix child must reuse the parent's virtual addresses")
			}
			if c.AS == p.AS {
				t.Error("posix child must have its own address space")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCoWSnapshotSemantics(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 0, []byte("snapshot")); err != nil {
			t.Fatal(err)
		}
		_, err := k.Fork(p, func(c *kernel.Proc) {
			buf := make([]byte, 8)
			if err := c.Load(c.HeapCap, 0, buf); err != nil {
				t.Errorf("child load: %v", err)
				return
			}
			if string(buf) != "snapshot" {
				t.Errorf("child sees %q", buf)
			}
			if err := c.Store(c.HeapCap, 0, []byte("CHILDWRT")); err != nil {
				t.Errorf("child store: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := p.Load(p.HeapCap, 0, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "snapshot" {
			t.Errorf("parent sees %q: child write leaked", buf)
		}
	})
}

func TestNoRelocationNeeded(t *testing.T) {
	// Pointers stored before fork remain valid unchanged in the child —
	// the whole point of same-VA CoW fork.
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		tgt, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 4096).SetBounds(32)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Store(tgt, 0, []byte("pointee")); err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 0, tgt); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			ptr, err := c.LoadCap(c.HeapCap, 0)
			if err != nil {
				t.Errorf("child cap load: %v", err)
				return
			}
			if ptr.Addr() != tgt.Addr() {
				t.Errorf("pointer changed across posix fork: %v vs %v", ptr, tgt)
			}
			buf := make([]byte, 7)
			if err := c.Load(ptr, 0, buf); err != nil {
				t.Errorf("deref: %v", err)
				return
			}
			if string(buf) != "pointee" {
				t.Errorf("deref = %q", buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRuntimeImageInPRSS(t *testing.T) {
	// The monolithic per-process runtime image (rtld, libc) is part of the
	// image and shows up in the child's proportional set (Fig. 8's
	// per-process memory gap); a freshly forked child shares it CoW.
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		var childPRSS uint64
		_, err := k.Fork(p, func(c *kernel.Proc) {
			r, _ := k.SmapsOf(c.PID)
			childPRSS = r.Total.PSSBytes
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		// At minimum half the runtime image is attributed to the child.
		min := uint64(k.Machine.RuntimeImagePages) * vm.PageSize / 2
		if childPRSS < min {
			t.Errorf("child PRSS = %d, want >= %d (shared runtime image)", childPRSS, min)
		}
	})
}

func TestForkLatencyIncludesVMSpace(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {})
		if err != nil {
			t.Fatal(err)
		}
		if p.LastFork.Latency < k.Machine.VMSpaceSetup {
			t.Errorf("fork latency %v below vmspace setup cost %v",
				p.LastFork.Latency, k.Machine.VMSpaceSetup)
		}
		if p.LastFork.PTEsCopied == 0 {
			t.Error("no PTEs copied")
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriteToTextRejected(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			textVA := c.Layout.SegBase(c.Region.Base, kernel.SegText)
			err := c.Store(c.DDC.SetAddr(textVA), 0, []byte{0x90})
			if err == nil {
				t.Error("write to CoW text must still fail")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSharedPagesAccounting(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		blob := make([]byte, 4*vm.PageSize)
		if err := p.Store(p.HeapCap, 0, blob); err != nil {
			t.Fatal(err)
		}
		_, err := k.Fork(p, func(c *kernel.Proc) {
			r, _ := k.SmapsOf(c.PID)
			if r.Total.SharedPages == 0 {
				t.Error("freshly forked posix child should share pages CoW")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}
