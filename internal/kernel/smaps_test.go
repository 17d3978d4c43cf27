package kernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/baseline/posix"
	"ufork/internal/baseline/vmclone"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
)

// TestSmapsSyscall drives SYS_SMAPS across a live fork pair under CoPA:
// the parent and child share almost the whole image, so RSS diverges from
// PSS and USS, the shared split lands clean for text and dirty for heap,
// and ΣPSS across the pair equals exactly the frames they occupy.
func TestSmapsSyscall(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var parent, child kernel.SmapsReport
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			st, err := k.Smaps(c, 0)
			if err != nil {
				t.Errorf("child smaps: %v", err)
			}
			child = st
			pst, err := k.Smaps(c, p.PID)
			if err != nil {
				t.Errorf("child smaps of parent: %v", err)
			}
			parent = pst
			k.Exit(c, 0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if _, err := k.Smaps(p, kernel.PID(9999)); !errors.Is(err, kernel.ErrNoProc) {
			t.Errorf("smaps of missing pid: got %v, want ErrNoProc", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	if child.Gen != 1 || parent.Gen != 0 {
		t.Errorf("generations = parent %d / child %d, want 0 / 1", parent.Gen, child.Gen)
	}
	for _, r := range []kernel.SmapsReport{parent, child} {
		tot := r.Total
		if tot.MappedPages == 0 || tot.RSSBytes != uint64(tot.MappedPages)*kernel.PageSize {
			t.Errorf("%s[%d]: mapped=%d rss=%d", r.Name, r.PID, tot.MappedPages, tot.RSSBytes)
		}
		if tot.SharedPages == 0 {
			t.Errorf("%s[%d]: no shared pages right after fork", r.Name, r.PID)
		}
		if tot.PSSBytes >= tot.RSSBytes || tot.PSSBytes < tot.USSBytes {
			t.Errorf("%s[%d]: PSS %d outside (USS %d, RSS %d)", r.Name, r.PID,
				tot.PSSBytes, tot.USSBytes, tot.RSSBytes)
		}
		if tot.SharedCleanBytes == 0 || tot.SharedDirtyBytes == 0 {
			t.Errorf("%s[%d]: shared clean/dirty = %d/%d, want both nonzero",
				r.Name, r.PID, tot.SharedCleanBytes, tot.SharedDirtyBytes)
		}
	}
	// Per-segment semantics: text can only share clean, heap only dirty.
	segs := make(map[string]kernel.SmapsRow)
	for _, row := range child.Rows {
		segs[row.Segment] = row
	}
	if text := segs["text"]; text.SharedDirtyBytes != 0 || text.SharedCleanBytes == 0 {
		t.Errorf("text row clean/dirty = %d/%d", text.SharedCleanBytes, text.SharedDirtyBytes)
	}
	if heap := segs["heap"]; heap.SharedCleanBytes != 0 || heap.SharedDirtyBytes == 0 {
		t.Errorf("heap row clean/dirty = %d/%d", heap.SharedCleanBytes, heap.SharedDirtyBytes)
	}
	// ΣPSS == live frames: both snapshots were taken at the same instant
	// (inside the child, before any further fault), every reference count
	// is 1 or 2, so the fixed-point division is exact.
	sum := parent.Total.PSSBytes + child.Total.PSSBytes
	want := uint64(parent.Total.MappedPages+child.Total.MappedPages-
		parent.Total.SharedPages) * kernel.PageSize
	if sum != want {
		t.Errorf("ΣPSS = %d bytes, want %d (distinct frames)", sum, want)
	}

	// The renderer mentions every populated segment and the totals line.
	text := kernel.RenderSmaps(child)
	for _, wantSub := range []string{"smaps for hello", "text", "heap", "total"} {
		if !strings.Contains(text, wantSub) {
			t.Errorf("RenderSmaps missing %q in:\n%s", wantSub, text)
		}
	}
}

// TestSmapsGaugesAndPlane arms the provenance plane on each kind of
// machine and checks the full pipeline: ProcStat carries the smaps gauges,
// exited snapshots freeze the final footprint, the plane's per-process
// aggregates agree with the page-table walk for parent and child alike,
// and a sharing break emits FrameOwnerChange. The multi-address-space
// machines give every process a page table of its own, whose mutations
// the plane must attribute to that process.
func TestSmapsGaugesAndPlane(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine *model.Machine
		engine  kernel.ForkEngine
		// shares: the fork shares frames, so the child's store breaks
		// sharing and PSS sits below RSS.
		shares bool
	}{
		{"ufork-copa", model.UFork(1), core.New(core.CopyOnPointerAccess), true},
		{"posix", model.Posix(1), posix.New(), true},
		{"vmclone", model.VMClone(1), vmclone.New(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := flight.New(2, 4096)
			fr.Enable()
			k := kernel.New(kernel.Config{
				Machine:   tc.machine,
				Engine:    tc.engine,
				Isolation: kernel.IsolationFull,
				Frames:    1 << 16,
				Flight:    fr,
			})
			pl := memmap.New()
			pl.Enable()
			k.ArmMemmap(pl)

			var childStat kernel.ProcStat
			var walkMid []kernel.SmapsReport
			var planeMid memmap.Snapshot
			var midAllocated int
			_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
				// Touch the first heap page so a demand-paged heap has it
				// mapped before the fork shares it.
				if err := p.Store(p.HeapCap, 0, []byte{1}); err != nil {
					t.Errorf("parent store: %v", err)
				}
				_, err := k.Fork(p, func(c *kernel.Proc) {
					// Break sharing on one heap page, then snapshot
					// everything while both processes are alive.
					if err := c.Store(c.HeapCap, 0, []byte{2}); err != nil {
						t.Errorf("child store: %v", err)
					}
					if _, err := k.Smaps(c, 0); err != nil {
						t.Errorf("child smaps: %v", err)
					}
					st, err := k.Procstat(c, 0)
					if err != nil {
						t.Errorf("child procstat: %v", err)
					}
					childStat = st
					for _, pid := range []kernel.PID{p.PID, c.PID} {
						r, _ := k.SmapsOf(pid)
						walkMid = append(walkMid, r)
					}
					planeMid = pl.Snapshot(0)
					midAllocated = k.Mem.Allocated()
					k.Exit(c, 0)
				})
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Errorf("wait: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			k.Run()

			if childStat.RSSBytes == 0 || childStat.PSSBytes == 0 || childStat.USSBytes == 0 {
				t.Fatalf("child stat gauges empty: %+v", childStat)
			}
			if tc.shares && childStat.PSSBytes >= childStat.RSSBytes {
				t.Errorf("child PSS %d >= RSS %d with live sharing", childStat.PSSBytes, childStat.RSSBytes)
			}
			if !tc.shares && childStat.PSSBytes != childStat.RSSBytes {
				t.Errorf("child PSS %d != RSS %d with nothing shared", childStat.PSSBytes, childStat.RSSBytes)
			}

			// Plane vs walk, mid-run: the plane tracked every allocation,
			// and its node for each process must agree with that
			// process's page-table walk.
			if planeMid.LiveFrames != midAllocated {
				t.Errorf("plane tracked %d live frames, allocator had %d", planeMid.LiveFrames, midAllocated)
			}
			if tc.shares && planeMid.OwnerChanges == 0 {
				t.Errorf("plane saw no owner change after a CoW break")
			}
			if planeMid.LiveByOrigin["image"] == 0 {
				t.Errorf("plane origins missing image pages: %v", planeMid.LiveByOrigin)
			}
			nodes := make(map[int32]memmap.ProcNode)
			for _, n := range planeMid.Procs {
				nodes[n.PID] = n
			}
			for i, r := range walkMid {
				node, ok := nodes[int32(r.PID)]
				if !ok {
					t.Fatalf("plane lost pid %d: %+v", r.PID, planeMid.Procs)
				}
				if node.RSSBytes != r.Total.RSSBytes || node.PSSBytes != r.Total.PSSBytes ||
					node.USSBytes != r.Total.USSBytes {
					t.Errorf("pid %d: plane node rss/pss/uss %d/%d/%d, smaps walk %d/%d/%d",
						r.PID, node.RSSBytes, node.PSSBytes, node.USSBytes,
						r.Total.RSSBytes, r.Total.PSSBytes, r.Total.USSBytes)
				}
				if node.Gen != i {
					t.Errorf("pid %d: plane gen = %d, want %d", r.PID, node.Gen, i)
				}
			}
			if child := walkMid[1].Total; uint64(childStat.RSSBytes) != child.RSSBytes ||
				uint64(childStat.PSSBytes) != child.PSSBytes || uint64(childStat.USSBytes) != child.USSBytes {
				t.Errorf("child gauges %+v disagree with its walk %+v", childStat, child)
			}

			// The reaped snapshot froze the pre-unmap footprint.
			for _, st := range k.ProcStats() {
				if !st.Exited {
					t.Fatalf("proc %d not exited", st.PID)
				}
				if st.RSSBytes == 0 || st.USSBytes == 0 {
					t.Errorf("reaped proc %d lost its frozen footprint: %+v", st.PID, st)
				}
			}

			// The sharing break emitted a decodable FrameOwnerChange event.
			found := false
			for _, ev := range fr.Snapshot() {
				if ev.Kind == flight.KindFrameOwnerChange {
					found = true
					line := ev.Format()
					if !strings.Contains(line, "frame-owner") || !strings.Contains(line, "mode=") {
						t.Errorf("owner-change format: %q", line)
					}
				}
			}
			if tc.shares && !found {
				t.Errorf("no FrameOwnerChange event in the flight recorder")
			}
		})
	}
}

// TestSmapsAccounting pins how the smaps walk turns page reference counts
// into RSS, PSS and USS. A parent forks child A, writes one heap page (so
// A keeps the old frame to itself), then forks child B. While both
// children are parked on a pipe, the three processes hold pages with one,
// two and three references: every page the parent never wrote is mapped
// three times. PSS adds each page's share at fixed point, so a process
// loses at most one byte to truncation, where dividing each page's size
// by three would lose a third of a byte per page.
func TestSmapsAccounting(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var reports [3]kernel.SmapsReport
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		r, w, err := k.Pipe(p)
		if err != nil {
			t.Error(err)
			return
		}
		park := func(c *kernel.Proc) {
			if _, err := k.Read(c, r, make([]byte, 1)); err != nil {
				t.Errorf("child read: %v", err)
			}
		}
		a, err := k.Fork(p, park)
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Store(p.HeapCap, 0, []byte{1}); err != nil {
			t.Error(err)
			return
		}
		b, err := k.Fork(p, park)
		if err != nil {
			t.Error(err)
			return
		}
		for i, pid := range []kernel.PID{p.PID, a, b} {
			reports[i], _ = k.SmapsOf(pid)
		}
		if _, err := k.Write(p, w, []byte{0, 0}); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	parent, a, b := reports[0].Total, reports[1].Total, reports[2].Total
	// A shares only the three-way pages; the parent and B also share the
	// page the parent wrote between the forks.
	n3 := a.SharedPages
	if n3 == 0 || parent.SharedPages != n3+1 || b.SharedPages != n3+1 {
		t.Fatalf("shared pages parent/A/B = %d/%d/%d, want n+1/n/n+1 with n > 0",
			parent.SharedPages, a.SharedPages, b.SharedPages)
	}
	const fp = kernel.PageSize << 16 // one page at the walk's fixed point
	third := uint64(n3) * (fp / 3)
	for _, c := range []struct {
		name string
		tot  kernel.SmapsRow
		pss  uint64 // the shared pages' fixed-point PSS
	}{
		{"parent", parent, fp/2 + third},
		{"A", a, third},
		{"B", b, fp/2 + third},
	} {
		tot := c.tot
		if tot.RSSBytes != uint64(tot.MappedPages)*kernel.PageSize ||
			tot.USSBytes != uint64(tot.PrivatePages)*kernel.PageSize ||
			tot.MappedPages != tot.PrivatePages+tot.SharedPages {
			t.Errorf("%s: mapped/private/shared %d/%d/%d, rss %d, uss %d", c.name,
				tot.MappedPages, tot.PrivatePages, tot.SharedPages, tot.RSSBytes, tot.USSBytes)
		}
		if want := tot.USSBytes + c.pss>>16; tot.PSSBytes != want {
			t.Errorf("%s: PSS = %d, want %d", c.name, tot.PSSBytes, want)
		}
	}
	// ΣPSS == the frames the three occupy, short by at most one byte per
	// process for its truncation; per-page division would be short by one
	// byte per three-way page.
	frames := uint64(parent.PrivatePages+a.PrivatePages+b.PrivatePages+n3+1) * kernel.PageSize
	sum := parent.PSSBytes + a.PSSBytes + b.PSSBytes
	if sum > frames || frames-sum > 3 {
		t.Errorf("ΣPSS = %d bytes, frames = %d bytes: want at most 3 bytes below", sum, frames)
	}
	if n3 <= 3 {
		t.Errorf("only %d three-way pages; the test needs enough to tell fixed point from per-page division", n3)
	}
}

// TestProcStatRingEviction pins the reaped-snapshot ring: bounded at 128
// entries, evicting oldest-first.
func TestProcStatRingEviction(t *testing.T) {
	const children = 140 // deadStatsCap (128) + 12
	k := newKernel(1, kernel.IsolationFault)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < children; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("wait %d: %v", i, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	stats := k.ProcStats()
	dead, sawRoot := 0, false
	minPID, maxPID := int(1<<30), 0
	for _, st := range stats {
		if !st.Exited {
			t.Errorf("proc %d not exited after the run", st.PID)
		}
		dead++
		if st.PID == 1 {
			sawRoot = true
			continue
		}
		if st.PID < minPID {
			minPID = st.PID
		}
		if st.PID > maxPID {
			maxPID = st.PID
		}
	}
	if dead != 128 {
		t.Fatalf("dead ring holds %d snapshots, want exactly deadStatsCap (128)", dead)
	}
	// The root exits last, so its snapshot is the newest entry; the rest
	// are the newest 127 children. Eviction is oldest-first, so the
	// earliest children (lowest PIDs) are the ones that fell off.
	if !sawRoot {
		t.Errorf("root's own snapshot evicted, want it retained (reaped last)")
	}
	if wantMin := children + 1 - 127 + 1; minPID != wantMin {
		t.Errorf("oldest surviving child PID = %d, want %d (oldest evicted first)", minPID, wantMin)
	}
	if maxPID != children+1 {
		t.Errorf("newest surviving child PID = %d, want %d", maxPID, children+1)
	}
}

// TestProcStatRingImmutability: a reaped snapshot is final — later kernel
// activity, and mutation of a returned slice, must not alter it.
func TestProcStatRingImmutability(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	var afterFirst []kernel.ProcStat
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			_, _ = k.Procstat(c, 0)
			k.Exit(c, 7)
		}); err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		afterFirst = k.ProcStats()
		// Tamper with the returned copy; the ring must be unaffected.
		for i := range afterFirst {
			if afterFirst[i].Exited {
				afterFirst[i].Syscalls = map[string]uint64{"bogus": 99}
			}
		}
		afterFirst = k.ProcStats()
		// More activity after the reap: another child, more syscalls.
		if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
			t.Errorf("fork 2: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait 2: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	var first, again *kernel.ProcStat
	for i := range afterFirst {
		if afterFirst[i].Exited {
			first = &afterFirst[i]
		}
	}
	for _, st := range k.ProcStats() {
		if st.Exited && st.PID == first.PID {
			cp := st
			again = &cp
		}
	}
	if first == nil || again == nil {
		t.Fatal("reaped snapshot missing")
	}
	if first.Syscalls["bogus"] != 0 {
		t.Errorf("tampering with a returned snapshot reached the ring")
	}
	if !reflect.DeepEqual(*first, *again) {
		t.Errorf("reaped snapshot changed after reap:\n first=%+v\n again=%+v", *first, *again)
	}
}
