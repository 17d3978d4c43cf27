package core_test

import (
	"errors"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/vm"
)

func newKernel(mode core.CopyMode, iso kernel.IsolationLevel) *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(mode),
		Isolation: iso,
		Frames:    1 << 16,
	})
}

// run spawns a single root process and drives the simulation.
func run(t *testing.T, k *kernel.Kernel, entry func(*kernel.Proc)) {
	t.Helper()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, entry); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestChildGetsDistinctRegion(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			if c.Region.Base == p.Region.Base {
				t.Error("child must occupy a different region (single AS)")
			}
			if c.AS != p.AS {
				t.Error("child must share the single address space")
			}
			if !c.Region.Contains(c.DDC.Base()) || c.DDC.Top() > c.Region.Top() {
				t.Errorf("child DDC not confined to child region: %v", c.DDC)
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

// TestForkMemorySnapshot is the heart of fork transparency (R2): the child
// sees the parent's data as of the fork, and writes on either side are
// invisible to the other.
func TestForkMemorySnapshot(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			k := newKernel(mode, kernel.IsolationFull)
			run(t, k, func(p *kernel.Proc) {
				if err := p.Store(p.HeapCap, 100, []byte("before-fork")); err != nil {
					t.Fatal(err)
				}
				_, err := k.Fork(p, func(c *kernel.Proc) {
					buf := make([]byte, 11)
					if err := c.Load(c.HeapCap, 100, buf); err != nil {
						t.Errorf("child load: %v", err)
						return
					}
					if string(buf) != "before-fork" {
						t.Errorf("child sees %q, want parent's pre-fork data", buf)
					}
					// Child write must not leak to the parent.
					if err := c.Store(c.HeapCap, 100, []byte("child-write")); err != nil {
						t.Errorf("child store: %v", err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 11)
				if err := p.Load(p.HeapCap, 100, buf); err != nil {
					t.Fatal(err)
				}
				if string(buf) != "before-fork" {
					t.Errorf("parent sees %q: child write leaked", buf)
				}
			})
		})
	}
}

func TestParentWritesInvisibleToChild(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 0, []byte("original")); err != nil {
			t.Fatal(err)
		}
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// Wait for the parent's signal that it has overwritten.
			buf := make([]byte, 1)
			if _, err := k.Read(c, rfd, buf); err != nil {
				t.Errorf("child pipe read: %v", err)
			}
			got := make([]byte, 8)
			if err := c.Load(c.HeapCap, 0, got); err != nil {
				t.Errorf("child load: %v", err)
				return
			}
			if string(got) != "original" {
				t.Errorf("child sees %q: parent post-fork write leaked into snapshot", got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Store(p.HeapCap, 0, []byte("MUTATED!")); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, wfd, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPointerRelocation stores a pointer chain in the parent heap and
// checks the child observes a fully relocated chain confined to its own
// region (§3.4 building block 3).
func TestPointerRelocation(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			k := newKernel(mode, kernel.IsolationFull)
			run(t, k, func(p *kernel.Proc) {
				// parent heap: node A at 0 holds {value, ptr -> node B at 4096};
				// node B holds a value.
				nodeB, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 4096).SetBounds(64)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Store(nodeB, 0, []byte("node-B-data")); err != nil {
					t.Fatal(err)
				}
				if err := p.StoreCap(p.HeapCap, 16, nodeB); err != nil {
					t.Fatal(err)
				}
				_, err = k.Fork(p, func(c *kernel.Proc) {
					ptr, err := c.LoadCap(c.HeapCap, 16)
					if err != nil {
						t.Errorf("child pointer load: %v", err)
						return
					}
					if !ptr.Tag() {
						t.Error("relocated pointer lost its tag")
						return
					}
					if !c.Region.Contains(ptr.Addr()) {
						t.Errorf("pointer still targets parent region: %v", ptr)
						return
					}
					if ptr.Base() < c.Region.Base || ptr.Top() > c.Region.Top() {
						t.Errorf("pointer bounds escape child region: %v", ptr)
						return
					}
					// Dereference the relocated pointer: must read node B's data
					// at the child's copy.
					buf := make([]byte, 11)
					if err := c.Load(ptr, 0, buf); err != nil {
						t.Errorf("deref relocated pointer: %v", err)
						return
					}
					if string(buf) != "node-B-data" {
						t.Errorf("relocated deref = %q", buf)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestGOTRelocatedEagerly: immediately after fork — before any fault — the
// child's GOT must already point into the child region (§3.7).
func TestGOTRelocatedEagerly(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			for i := 0; i < c.Spec.GOTEntries; i++ {
				g, err := c.GOTLoad(i)
				if err != nil {
					t.Errorf("child GOT[%d]: %v", i, err)
					return
				}
				if !c.Region.Contains(g.Addr()) {
					t.Errorf("child GOT[%d] points at %#x outside child region", i, g.Addr())
					return
				}
			}
			// The proactive copy means no fault was needed: the GOT pages
			// must not be in the pending set.
			gotBase := c.Layout.SegBase(c.Region.Base, kernel.SegGOT)
			for pg := 0; pg < c.Layout.Pages[kernel.SegGOT]; pg++ {
				if c.Pending.Contains(vm.VPNOf(gotBase + uint64(pg)*vm.PageSize)) {
					t.Error("GOT page left pending: must be proactively relocated")
				}
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

// TestRegisterRelocation: capabilities stashed in the register file are
// relocated at fork (§3.5 step 2), and integers are left alone.
func TestRegisterRelocation(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 256, []byte("reg-target")); err != nil {
			t.Fatal(err)
		}
		ptr, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 256).SetBounds(32)
		if err != nil {
			t.Fatal(err)
		}
		p.Regs[3] = ptr
		p.Regs[4] = cap.Null().SetAddr(12345) // an integer, untagged
		_, err = k.Fork(p, func(c *kernel.Proc) {
			r := c.Regs[3]
			if !r.Tag() || !c.Region.Contains(r.Addr()) {
				t.Errorf("register cap not relocated: %v", r)
				return
			}
			buf := make([]byte, 10)
			if err := c.Load(r, 0, buf); err != nil {
				t.Errorf("deref relocated register: %v", err)
				return
			}
			if string(buf) != "reg-target" {
				t.Errorf("register deref = %q", buf)
			}
			if c.Regs[4].Tag() || c.Regs[4].Addr() != 12345 {
				t.Errorf("integer register modified: %v", c.Regs[4])
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

// TestCoPASharesDataPages: under CoPA a child that only performs plain
// (non-capability) reads never copies those pages (§3.8); under CoA the
// same reads copy every touched page. This is the mechanism behind the
// 6 MB vs 101 MB result of Fig. 5.
func TestCoPASharesDataPages(t *testing.T) {
	touched := func(mode core.CopyMode) (privatePages int) {
		k := newKernel(mode, kernel.IsolationFull)
		run(t, k, func(p *kernel.Proc) {
			// Fill 16 heap pages with plain data.
			blob := make([]byte, 16*vm.PageSize)
			for i := range blob {
				blob[i] = byte(i)
			}
			if err := p.Store(p.HeapCap, 0, blob); err != nil {
				t.Fatal(err)
			}
			_, err := k.Fork(p, func(c *kernel.Proc) {
				got := make([]byte, 16*vm.PageSize)
				if err := c.Load(c.HeapCap, 0, got); err != nil {
					t.Errorf("child read: %v", err)
					return
				}
				for i := 0; i < len(got); i += vm.PageSize {
					if got[i] != byte(i) {
						t.Errorf("byte %d = %d", i, got[i])
						return
					}
				}
				r, _ := k.SmapsOf(c.PID)
				privatePages = r.Total.PrivatePages
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		})
		return privatePages
	}
	copa := touched(core.CopyOnPointerAccess)
	coa := touched(core.CopyOnAccess)
	if copa >= coa {
		t.Fatalf("CoPA private pages (%d) must be fewer than CoA (%d)", copa, coa)
	}
	// CoA must have copied at least the 16 data pages.
	if coa < 16 {
		t.Fatalf("CoA copied only %d pages", coa)
	}
}

// TestCoPACopiesOnPointerLoad: loading a capability from a shared page
// must trigger the copy + relocation (Fig. 2, case B).
func TestCoPACopiesOnPointerLoad(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		target, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 8192).SetBounds(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 0, target); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			before := c.AS.Stats.Fault(vm.FaultCapLoad)
			if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
				t.Errorf("child cap load: %v", err)
				return
			}
			after := c.AS.Stats.Fault(vm.FaultCapLoad)
			if after != before+1 {
				t.Errorf("cap-load faults: %d -> %d, want exactly one", before, after)
			}
			// The page is now private; a second load takes no fault.
			if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
				t.Errorf("second cap load: %v", err)
			}
			if got := c.AS.Stats.Fault(vm.FaultCapLoad); got != after {
				t.Errorf("second load faulted: %d -> %d", after, got)
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

// TestNoParentCapabilityLeaks scans every frame mapped by the child after
// a workload and asserts no reachable capability grants access outside the
// child's region — the §4.2/§4.3 security invariant.
func TestNoParentCapabilityLeaks(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			k := newKernel(mode, kernel.IsolationFull)
			run(t, k, func(p *kernel.Proc) {
				// Build a small object graph in the parent.
				for i := 0; i < 8; i++ {
					tgt, err := p.HeapCap.SetAddr(p.HeapCap.Base() + uint64(i+1)*512).SetBounds(128)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.StoreCap(p.HeapCap, uint64(i)*32, tgt); err != nil {
						t.Fatal(err)
					}
				}
				_, err := k.Fork(p, func(c *kernel.Proc) {
					// Touch everything: load all pointers, write some data.
					for i := 0; i < 8; i++ {
						if _, err := c.LoadCap(c.HeapCap, uint64(i)*32); err != nil {
							t.Errorf("cap load %d: %v", i, err)
							return
						}
					}
					if err := c.Store(c.StackCap, 0, []byte("x")); err != nil {
						t.Errorf("stack write: %v", err)
					}
					// Now audit: every tagged capability in every frame the
					// child has PRIVATIZED must be confined to the child.
					// (Shared frames still hold parent-valid caps, but the
					// LC-fault bit guards them: loading one triggers the copy.)
					c.AS.RangeVPNs(vm.VPNOf(c.Region.Base), vm.VPNOf(c.Region.Top()-1)+1,
						func(vpn vm.VPN, pte *vm.PTE) {
							if pte.Page.Refs != 1 {
								return // still shared: protected by CoPA barrier
							}
							if c.Pending.Contains(vpn) {
								return // not yet relocated, also not yet readable as caps
							}
							err := k.Mem.ForEachTagged(pte.Page.PFN, func(off uint64) error {
								cp, err := k.Mem.LoadCap(pte.Page.PFN, off)
								if err != nil {
									t.Errorf("load: %v", err)
									return nil
								}
								if cp.IsSealed() {
									return nil // kernel entry sentry
								}
								if cp.Base() < c.Region.Base || cp.Top() > c.Region.Top() {
									t.Errorf("leaked capability at vpn %#x+%d: %v", uint64(vpn), off, cp)
								}
								return nil
							})
							if err != nil {
								t.Errorf("scan: %v", err)
							}
						})
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestGrandchildRelocation forks a child that forks again, with a pointer
// the intermediate generation never touched: the grandchild must still see
// a correctly relocated pointer (ancestor-region relocation).
func TestGrandchildRelocation(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	run(t, k, func(p *kernel.Proc) {
		tgt, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 3*4096).SetBounds(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Store(tgt, 0, []byte("deep-data")); err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 48, tgt); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// The child does NOT touch the pointer page; forks again.
			_, err := k.Fork(c, func(g *kernel.Proc) {
				ptr, err := g.LoadCap(g.HeapCap, 48)
				if err != nil {
					t.Errorf("grandchild cap load: %v", err)
					return
				}
				if !g.Region.Contains(ptr.Addr()) {
					t.Errorf("grandchild pointer not in own region: %v", ptr)
					return
				}
				buf := make([]byte, 9)
				if err := g.Load(ptr, 0, buf); err != nil {
					t.Errorf("grandchild deref: %v", err)
					return
				}
				if string(buf) != "deep-data" {
					t.Errorf("grandchild deref = %q", buf)
				}
			})
			if err != nil {
				t.Errorf("child fork: %v", err)
				return
			}
			if _, _, err := k.Wait(c); err != nil {
				t.Errorf("child wait: %v", err)
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

// TestForkLatencyOrdering: CopyFull must be far slower than CoA/CoPA, and
// CoPA at most as slow as CoA (Fig. 4's ordering).
func TestForkLatencyOrdering(t *testing.T) {
	latency := func(mode core.CopyMode) (lat uint64) {
		k := newKernel(mode, kernel.IsolationFull)
		spec := kernel.HelloWorldSpec()
		spec.HeapPages = 2048 // a sizeable image so the full copy dominates
		if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
			// Dirty some pages so there is something to copy.
			blob := make([]byte, 32*vm.PageSize)
			if err := p.Store(p.HeapCap, 0, blob); err != nil {
				t.Fatal(err)
			}
			_, err := k.Fork(p, func(c *kernel.Proc) {})
			if err != nil {
				t.Fatal(err)
			}
			lat = uint64(p.LastFork.Latency)
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return lat
	}
	full := latency(core.CopyFull)
	coa := latency(core.CopyOnAccess)
	copa := latency(core.CopyOnPointerAccess)
	if full <= coa*2 {
		t.Fatalf("full copy (%d) should dwarf CoA (%d)", full, coa)
	}
	if copa > coa {
		t.Fatalf("CoPA fork latency (%d) must not exceed CoA (%d)", copa, coa)
	}
}

// TestIsolationNoneWideCaps: with isolation disabled the DDC spans memory
// and cross-region loads don't capability-fault (R4).
func TestIsolationNoneWideCaps(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationNone)
	run(t, k, func(p *kernel.Proc) {
		if p.DDC.Len() != ^uint64(0) {
			t.Fatalf("IsolationNone should issue an all-memory DDC, got %v", p.DDC)
		}
	})
}

// TestSegfaultOutsideRegion: an access far outside any mapping is a clean
// error, not a panic.
func TestSegfaultOutsideRegion(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationNone)
	run(t, k, func(p *kernel.Proc) {
		wild := p.DDC.SetAddr(1 << 60)
		err := p.Load(wild, 0, make([]byte, 8))
		if !errors.Is(err, kernel.ErrSegfault) {
			t.Fatalf("wild load: got %v, want segfault", err)
		}
	})
}

// TestRepeatedForks exercises the zygote pattern: one parent forking many
// children sequentially, each child touching memory.
func TestRepeatedForks(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	const n = 20
	seen := map[kernel.PID]bool{}
	liveFrames := 0
	run(t, k, func(p *kernel.Proc) {
		defer func() { liveFrames = k.Mem.Allocated() }()
		if err := p.Store(p.HeapCap, 0, []byte("zygote-state")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			_, err := k.Fork(p, func(c *kernel.Proc) {
				buf := make([]byte, 12)
				if err := c.Load(c.HeapCap, 0, buf); err != nil {
					t.Errorf("child %d load: %v", c.PID, err)
					return
				}
				if string(buf) != "zygote-state" {
					t.Errorf("child %d sees %q", c.PID, buf)
				}
				if err := c.Store(c.HeapCap, 4096, []byte("scratch")); err != nil {
					t.Errorf("child %d store: %v", c.PID, err)
				}
				seen[k.Getpid(c)] = true
			})
			if err != nil {
				t.Fatalf("fork %d: %v", i, err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		}
	})
	if len(seen) != n {
		t.Fatalf("saw %d children, want %d", len(seen), n)
	}
	if liveFrames == 0 {
		t.Fatal("expected live frames while the parent still ran")
	}
}

// TestFrameReclamation: after all children exit, the only frames left are
// the root's.
func TestFrameReclamation(t *testing.T) {
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	var before, after int
	run(t, k, func(p *kernel.Proc) {
		blob := make([]byte, 8*vm.PageSize)
		if err := p.Store(p.HeapCap, 0, blob); err != nil {
			t.Fatal(err)
		}
		before = k.Mem.Allocated()
		for i := 0; i < 5; i++ {
			_, err := k.Fork(p, func(c *kernel.Proc) {
				if err := c.Store(c.HeapCap, 0, []byte("dirty")); err != nil {
					t.Errorf("child store: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		after = k.Mem.Allocated()
	})
	if after != before {
		t.Fatalf("frames leaked: %d before, %d after forks", before, after)
	}
}

// TestRodataCapsRelocatedOnRead covers Fig. 1's "code and read-only data"
// case: a static pointer table in rodata is relocated when the child loads
// from it.
func TestRodataCapsRelocatedOnRead(t *testing.T) {
	spec := kernel.HelloWorldSpec()
	spec.RodataCapsPerPage = 4
	k := newKernel(core.CopyOnPointerAccess, kernel.IsolationFull)
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		roCap := p.SegCap(kernel.SegRodata).WithPerms(cap.PermRO)
		_, err := k.Fork(p, func(c *kernel.Proc) {
			croCap := c.SegCap(kernel.SegRodata).WithPerms(cap.PermRO)
			ptr, err := c.LoadCap(croCap, 0)
			if err != nil {
				t.Errorf("rodata cap load: %v", err)
				return
			}
			if !c.Region.Contains(ptr.Addr()) {
				t.Errorf("rodata pointer not relocated: %v", ptr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Parent's rodata pointer still points into the parent.
		ptr, err := p.LoadCap(roCap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Region.Contains(ptr.Addr()) {
			t.Errorf("parent rodata pointer moved: %v", ptr)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}
