package core_test

// Adversarial tests of the isolation invariants (§4.3 "Cross-μprocess
// Isolation", §4.4 "μprocess-Kernel Isolation"): each test plays an
// attacker-controlled μprocess trying to escape its region or reach a
// sibling, and asserts the capability machinery refuses.

import (
	"errors"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/vm"
)

// TestSiblingRegionsUnreachable: two children of the same parent cannot
// touch each other's memory through any capability they hold.
func TestSiblingRegionsUnreachable(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		var firstRegion kernel.Region
		// Keep child 1 alive while child 2 probes (otherwise its region is
		// legitimately recycled): it blocks on a pipe until the probe ran.
		readyR, readyW, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		doneR, doneW, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			firstRegion = c.Region
			if err := c.Store(c.HeapCap, 0, []byte("secret-of-1")); err != nil {
				t.Errorf("child1 store: %v", err)
			}
			if _, err := k.Write(c, readyW, []byte{1}); err != nil {
				t.Errorf("child1 ready: %v", err)
			}
			if _, err := k.Read(c, doneR, make([]byte, 1)); err != nil {
				t.Errorf("child1 done wait: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Read(p, readyR, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// Attack 1: re-aim an own capability at the sibling's region.
			probe := c.DDC.SetAddr(firstRegion.Base)
			buf := make([]byte, 8)
			if err := c.Load(probe, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
				t.Errorf("sibling read via retargeted DDC: %v, want cap fault", err)
			}
			// Attack 2: try to grow bounds to cover the sibling.
			if _, err := c.DDC.SetAddr(firstRegion.Base).SetBounds(64); !errors.Is(err, cap.ErrMonotonic) && err == nil {
				t.Error("bounds grew over a sibling region")
			}
			// Attack 3: fabricate a capability from raw integers — untagged,
			// so dereference fails.
			forged := cap.Null().SetAddr(firstRegion.Base)
			if err := c.Load(forged, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
				t.Errorf("forged capability deref: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Release child 1 and reap both.
		if _, err := k.Write(p, doneW, []byte{1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestChildCannotReachParent: after fork, no capability the child can
// construct reaches live parent memory.
func TestChildCannotReachParent(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 0, []byte("parent-secret")); err != nil {
			t.Fatal(err)
		}
		parentHeap := p.HeapCap
		_, err := k.Fork(p, func(c *kernel.Proc) {
			buf := make([]byte, 13)
			// The parent's heap capability value (e.g. leaked through a
			// register the program treats as an integer) has a parent
			// address — but the child's relocated register file never
			// carries it tagged; reconstructing it yields an untagged cap.
			leaked := cap.Null().SetAddr(parentHeap.Addr())
			if err := c.Load(leaked, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
				t.Errorf("leaked-address deref: %v", err)
			}
			// Even the child's own DDC, retargeted at the parent, fails.
			probe := c.DDC.SetAddr(parentHeap.Base())
			if err := c.Load(probe, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
				t.Errorf("retargeted DDC into parent: %v", err)
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

// TestSentryCannotBeForgedOrInspected: the syscall entry token is sealed;
// user code cannot unseal, retarget, or fabricate it (§4.4, principle 1).
func TestSentryCannotBeForgedOrInspected(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		s := p.SyscallCap
		if !s.IsSealed() {
			t.Fatal("syscall cap must be sealed")
		}
		// Dereference refused.
		if err := p.Load(s, 0, make([]byte, 8)); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("sentry deref: %v", err)
		}
		// Retargeting clears the tag.
		if moved := s.Add(64); moved.Tag() {
			t.Error("retargeted sentry kept its tag")
		}
		// Unsealing requires an unsealing capability the process lacks.
		if _, err := s.Unseal(p.DDC); err == nil {
			t.Error("sentry unsealed with a data capability")
		}
		// A self-made "sentry" is untagged garbage.
		fake := cap.Null().SetAddr(k.KernelRegion.Base)
		if _, err := fake.InvokeSentry(); err == nil {
			t.Error("forged sentry invoked")
		}
	})
}

// TestStaleCapabilityTagClearedByOverwrite: partially overwriting a stored
// pointer destroys it — the attacker cannot splice address bytes into an
// existing capability (§2.4).
func TestStaleCapabilityTagClearedByOverwrite(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		target, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 4096).SetBounds(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 0, target); err != nil {
			t.Fatal(err)
		}
		// Splice attack: rewrite the address bytes of the stored cap.
		if err := p.Store(p.HeapCap, 0, []byte{0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		got, err := p.LoadCap(p.HeapCap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag() {
			t.Error("spliced capability survived with a valid tag")
		}
		if err := p.Load(got, 0, make([]byte, 4)); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("deref of spliced capability: %v", err)
		}
	})
}

// TestCoPABarrierGuardsSharedCaps: while a page is still CoPA-shared, the
// child cannot read a parent capability out of it — the load faults first
// and relocation happens before the value is observable.
func TestCoPABarrierGuardsSharedCaps(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		tgt, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 8192).SetBounds(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 0, tgt); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// Before any fault, the child's PTE still references the
			// parent frame — but with the LC-fault bit set.
			vpn := vm.VPNOf(c.HeapCap.Base())
			pte := c.AS.Lookup(vpn)
			if pte == nil {
				t.Error("heap page unmapped in child")
				return
			}
			if pte.Prot&vm.ProtCapLoadFault == 0 {
				t.Error("shared page lacks the capability-load barrier")
			}
			got, err := c.LoadCap(c.HeapCap, 0)
			if err != nil {
				t.Errorf("cap load: %v", err)
				return
			}
			if !c.Region.Contains(got.Addr()) {
				t.Errorf("observed an unrelocated parent capability: %v", got)
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

// TestWX: no segment is simultaneously writable and executable.
func TestWX(t *testing.T) {
	for s := kernel.Segment(0); s < 10; s++ {
		prot := s.NaturalProt()
		if prot&vm.ProtWrite != 0 && prot&vm.ProtExec != 0 {
			t.Errorf("segment %v is W^X-violating: %v", s, prot)
		}
	}
}
