package alloc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// refFree is the allocator's original Free: a walk of the used list from
// its head. The differential tests run every scenario once through Free
// and once through refFree and require identical outcomes.
func refFree(a *Allocator, c cap.Capability) error {
	prev := uint64(0)
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return err
	}
	for cur != 0 {
		bc, size, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return err
		}
		if bc.Addr() == c.Addr() {
			if prev == 0 {
				if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, next); err != nil {
					return err
				}
			} else {
				pc, psize, _, err := a.loadBlock(prev - 1)
				if err != nil {
					return err
				}
				if err := a.storeBlock(prev-1, pc, psize, next); err != nil {
					return err
				}
			}
			freeHead, err := a.p.LoadU64(a.p.MetaCap, offFreeHead)
			if err != nil {
				return err
			}
			if err := a.storeBlock(cur-1, bc, size, freeHead); err != nil {
				return err
			}
			a.churn("alloc.free", size)
			return a.p.StoreU64(a.p.MetaCap, offFreeHead, cur)
		}
		prev, cur = cur, next
	}
	return fmt.Errorf("%w: %v", ErrBadFree, c)
}

// step is one recorded allocator operation: what was done, the error
// class it returned, and a hash of the whole metadata segment after it.
type step struct {
	op   string
	err  string
	meta uint64
}

// recorder drives one scenario run, freeing through Free or refFree.
type recorder struct {
	ref   bool
	steps []step
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadFree):
		return "bad-free"
	default:
		return err.Error()
	}
}

func (r *recorder) note(p *kernel.Proc, op string, err error) {
	buf := make([]byte, p.MetaCap.Len())
	h := fnv.New64a()
	if lerr := p.Load(p.MetaCap, 0, buf); lerr != nil {
		op += " (snapshot: " + lerr.Error() + ")"
	}
	h.Write(buf)
	r.steps = append(r.steps, step{op: op, err: errClass(err), meta: h.Sum64()})
}

func (r *recorder) alloc(a *Allocator, n uint64) (cap.Capability, error) {
	c, err := a.Alloc(n)
	r.note(a.p, fmt.Sprintf("alloc(%d)", n), err)
	return c, err
}

func (r *recorder) free(a *Allocator, c cap.Capability, what string) error {
	var err error
	if r.ref {
		err = refFree(a, c)
	} else {
		err = a.Free(c)
	}
	r.note(a.p, fmt.Sprintf("free %s %#x", what, c.Addr()), err)
	return err
}

// diffSpec sizes the image so random sequences never exhaust the heap or
// the descriptor table.
func diffSpec() kernel.ProgramSpec {
	s := kernel.HelloWorldSpec()
	s.AllocMetaPages, s.HeapPages = 16, 512
	return s
}

// runScenario runs fn as the root μprocess of a fresh CoPA kernel and
// returns the recorded steps.
func runScenario(t *testing.T, ref bool, fn func(r *recorder, k *kernel.Kernel, p *kernel.Proc)) []step {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	r := &recorder{ref: ref}
	if _, err := k.Spawn(diffSpec(), 0, func(p *kernel.Proc) {
		a := Attach(p)
		r.note(p, "init", a.Init())
		fn(r, k, p)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return r.steps
}

// diffRun requires the indexed and reference runs of fn to agree step by
// step: the same operations, error classes and metadata bytes.
func diffRun(t *testing.T, fn func(r *recorder, k *kernel.Kernel, p *kernel.Proc)) []step {
	t.Helper()
	got := runScenario(t, false, fn)
	want := runScenario(t, true, fn)
	if len(got) != len(want) {
		t.Fatalf("indexed run took %d steps, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: indexed %+v, reference %+v", i, got[i], want[i])
		}
	}
	return got
}

// randomOps runs n seeded random operations against the live set through a
// (and, for a sixth of the frees, a second view b of the same process):
// allocations, frees of live blocks, double frees, and frees of
// capabilities that never named a block.
func randomOps(r *recorder, rng *rand.Rand, a, b *Allocator, live []cap.Capability, n int) []cap.Capability {
	var dead []cap.Capability
	for i := 0; i < n; i++ {
		switch x := rng.Intn(100); {
		case x < 50 || len(live) == 0:
			if c, err := r.alloc(a, uint64(rng.Intn(300)+1)); err == nil {
				live = append(live, c)
			}
		case x < 80:
			j := rng.Intn(len(live))
			c := live[j]
			live = append(live[:j], live[j+1:]...)
			v, what := a, "live"
			if rng.Intn(6) == 0 {
				v, what = b, "live via second view"
			}
			if r.free(v, c, what) == nil {
				dead = append(dead, c)
			}
		case x < 88 && len(dead) > 0:
			r.free(a, dead[rng.Intn(len(dead))], "dead")
		case x < 94:
			// Blocks are granule aligned, so base+8 never names one.
			c := live[rng.Intn(len(live))]
			r.free(a, c.SetAddr(c.Addr()+8), "interior")
		default:
			r.free(a, a.p.DataCap, "foreign")
		}
	}
	return live
}

// TestFreeMatchesWalk is the allocator differential test: seeded random
// Alloc/Free sequences, double frees and frees of foreign or never-
// allocated capabilities give the same error class and a byte-identical
// metadata segment after every step, with and without the used-list index.
func TestFreeMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			steps := diffRun(t, func(r *recorder, k *kernel.Kernel, p *kernel.Proc) {
				rng := rand.New(rand.NewSource(seed))
				randomOps(r, rng, Attach(p), Attach(p), nil, 1000)
			})
			bad := 0
			for _, s := range steps {
				if s.err == "bad-free" {
					bad++
				}
			}
			if bad == 0 {
				t.Fatal("sequence exercised no bad frees")
			}
		})
	}
}

// TestFreeMatchesWalkAfterFork runs the differential in a forked child,
// whose metadata the fork relocated and whose index starts empty, and in
// the parent after the child exits.
func TestFreeMatchesWalkAfterFork(t *testing.T) {
	diffRun(t, func(r *recorder, k *kernel.Kernel, p *kernel.Proc) {
		rng := rand.New(rand.NewSource(11))
		a := Attach(p)
		live := randomOps(r, rng, a, Attach(p), nil, 400)
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			ca := Attach(c)
			blocks, err := ca.UsedBlocks()
			r.note(c, "child used blocks", err)
			byAddr := map[uint64]cap.Capability{}
			for _, b := range blocks {
				byAddr[b.Addr()] = b
			}
			delta := c.Region.Base - p.Region.Base
			var clive []cap.Capability
			for _, l := range live {
				clive = append(clive, byAddr[l.Addr()+delta])
			}
			// A parent capability is foreign to the child.
			r.free(ca, live[0], "parent block in child")
			randomOps(r, rng, ca, Attach(c), clive, 400)
		}); err != nil {
			r.note(p, "fork", err)
			return
		}
		_, _, err := k.Wait(p)
		r.note(p, "wait", err)
		randomOps(r, rng, a, Attach(p), live, 200)
	})
}

// TestStaleViewDoubleFree is the sequence a per-view index would get
// wrong: view B frees X and then X's predecessor P, which leaves P.next ==
// X on the free list; a double free of X through view A must still fail.
func TestStaleViewDoubleFree(t *testing.T) {
	steps := diffRun(t, func(r *recorder, k *kernel.Kernel, p *kernel.Proc) {
		va, vb := Attach(p), Attach(p)
		x, _ := r.alloc(va, 64)
		pb, _ := r.alloc(va, 64) // the new head: P.next == X
		r.free(vb, x, "X via B")
		r.free(vb, pb, "P via B")
		r.free(va, x, "X again via A")
	})
	if last := steps[len(steps)-1]; last.err != "bad-free" {
		t.Fatalf("double free through a second view: %+v, want bad-free", last)
	}
}

// TestFreeRechecksSimulatedMemory edits the used list behind the
// allocator's back: an index hit is only used once simulated memory
// confirms it, so Free still answers as the walk does.
func TestFreeRechecksSimulatedMemory(t *testing.T) {
	steps := diffRun(t, func(r *recorder, k *kernel.Kernel, p *kernel.Proc) {
		a := Attach(p)
		x, _ := r.alloc(a, 64)
		y, _ := r.alloc(a, 64)
		z, _ := r.alloc(a, 64) // used list: z → y → x
		// Unlink y by pointing z past it: y's index entry goes stale.
		zid := a.ix.byAddr[z.Addr()]
		r.note(p, "z.next = x", p.StoreU64(p.MetaCap, a.blockOff(zid-1)+24, a.ix.byAddr[x.Addr()]))
		r.free(a, y, "unlinked y")
		// Rewrite x's descriptor to hold another address.
		xid := a.ix.byAddr[x.Addr()]
		r.note(p, "x.cap moved", p.StoreCap(p.MetaCap, a.blockOff(xid-1), cap.Null().SetAddr(x.Addr()+8)))
		r.free(a, x, "x after its descriptor moved")
		// Empty the used list: the head check must fail for z.
		r.note(p, "usedHead = 0", p.StoreU64(p.MetaCap, offUsedHead, 0))
		r.free(a, z, "z off an empty list")
	})
	for _, s := range steps {
		if strings.HasPrefix(s.op, "free") && s.err != "bad-free" {
			t.Fatalf("%+v, want bad-free", s)
		}
	}
}
