package vmclone_test

import (
	"testing"

	"ufork/internal/baseline/vmclone"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

func newKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.VMClone(2),
		Engine:    vmclone.New(),
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

func TestCloneIsFullyPrivate(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 0, []byte("vm-state")); err != nil {
			t.Fatal(err)
		}
		_, err := k.Fork(p, func(c *kernel.Proc) {
			r, _ := k.SmapsOf(c.PID)
			u := r.Total
			if u.SharedPages != 0 {
				t.Errorf("VM clone shares %d pages; a cloned domain shares nothing", u.SharedPages)
			}
			// The OS image travelled with the clone.
			if u.MappedPages < k.Machine.VMImagePages {
				t.Errorf("clone maps %d pages, want at least the %d-page OS image",
					u.MappedPages, k.Machine.VMImagePages)
			}
			buf := make([]byte, 8)
			if err := c.Load(c.HeapCap, 0, buf); err != nil {
				t.Errorf("child load: %v", err)
				return
			}
			if string(buf) != "vm-state" {
				t.Errorf("child sees %q", buf)
			}
			// Writes are trivially private.
			if err := c.Store(c.HeapCap, 0, []byte("child-vm")); err != nil {
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
		if string(buf) != "vm-state" {
			t.Errorf("parent sees %q", buf)
		}
	})
}

func TestDomainCreationDominatesLatency(t *testing.T) {
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {})
		if err != nil {
			t.Fatal(err)
		}
		if p.LastFork.Latency < k.Machine.DomainCreate {
			t.Errorf("clone latency %v below domain-creation cost %v",
				p.LastFork.Latency, k.Machine.DomainCreate)
		}
		if p.LastFork.PagesCopied == 0 {
			t.Error("clone copied no pages")
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCloneLatencyFarExceedsUFork(t *testing.T) {
	// Order-of-magnitude sanity: 10.7 ms vs 54 µs in Fig. 8.
	k := newKernel()
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {})
		if err != nil {
			t.Fatal(err)
		}
		if p.LastFork.Latency < 100*model.UFork(1).ForkFixed {
			t.Errorf("VM clone latency %v should be orders of magnitude above μFork's fixed cost",
				p.LastFork.Latency)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}
