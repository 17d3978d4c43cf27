package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"ufork/internal/tmem"
)

// walkBase is a directory-aligned region start: key walkKey.
const (
	walkBase = VPN(1 << 18)
	walkKey  = walkBase >> dirBits
)

// walkPages maps a page at each given slot of three consecutive
// directories and returns the VPNs in ascending order.
func walkPages(t *testing.T, as *AddressSpace, prot Prot) []VPN {
	t.Helper()
	var vpns []VPN
	for d, slots := range [][]VPN{{0, 5, 100, dirSize - 1}, {0, 255, dirSize - 1}, {0, 7, 8, 300}} {
		for _, slot := range slots {
			vpn := walkBase + VPN(d)*dirSize + slot
			if _, err := as.MapNew(vpn, prot); err != nil {
				t.Fatal(err)
			}
			vpns = append(vpns, vpn)
		}
	}
	return vpns
}

// walkRange starts inside the first directory of walkPages and ends
// inside the third: slot 0 of the first and slots 8 and 300 of the third
// lie outside it.
const (
	walkStart = walkBase + 5
	walkEnd   = walkBase + 2*dirSize + 8
)

func inWalkRange(vpns []VPN) []VPN {
	var out []VPN
	for _, vpn := range vpns {
		if vpn >= walkStart && vpn < walkEnd {
			out = append(out, vpn)
		}
	}
	return out
}

// TestRangeVPNsPartialDirectories walks a range over three directories
// whose first and last are partial: it visits exactly the mapped pages
// inside, in ascending order, each with its own PTE.
func TestRangeVPNsPartialDirectories(t *testing.T) {
	as := newAS(t, 64)
	want := inWalkRange(walkPages(t, as, ProtRead))
	var got []VPN
	as.RangeVPNs(walkStart, walkEnd, func(vpn VPN, pte *PTE) {
		if pte != as.Lookup(vpn) {
			t.Errorf("vpn %#x: handed PTE is not the page table's", vpn)
		}
		got = append(got, vpn)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visited %#x, want %#x", got, want)
	}
	as.RangeVPNs(walkStart, walkStart, func(vpn VPN, _ *PTE) {
		t.Errorf("empty range visited %#x", vpn)
	})
}

// TestRangeVPNsMapsElsewhere: a walk whose fn maps every page into
// another region, the first into a directory taken back from the pool,
// and unmaps a page outside the range, still visits exactly the pages
// that existed before, in ascending order.
func TestRangeVPNsMapsElsewhere(t *testing.T) {
	as := newAS(t, 64)
	want := walkPages(t, as, ProtRead)
	// A page alone in a directory of the other region; unmapping it from
	// inside the walk pools its directory for the next Map to take.
	lone := walkBase + regionPages + 10*dirSize
	if _, err := as.MapNew(lone, ProtRead); err != nil {
		t.Fatal(err)
	}
	pooled := as.dirs[lone>>dirBits]
	var got []VPN
	as.RangeVPNs(walkBase, walkBase+3*dirSize, func(vpn VPN, pte *PTE) {
		if len(got) == 0 {
			if err := as.Unmap(lone); err != nil {
				t.Fatal(err)
			}
			if len(as.dirPool) != 1 {
				t.Fatalf("pool holds %d directories, want the lone page's", len(as.dirPool))
			}
		}
		got = append(got, vpn)
		if err := as.Map(vpn+regionPages, pte.Page, pte.Prot); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visited %#x, want %#x", got, want)
	}
	if as.dirs[(want[0]+regionPages)>>dirBits] != pooled || len(as.dirPool) != 0 {
		t.Errorf("the first mapping did not take the pooled directory back")
	}
	for _, vpn := range want {
		if pte := as.Lookup(vpn + regionPages); pte == nil || pte.Page.Refs != 2 {
			t.Errorf("vpn %#x: mapping made during the walk is missing", vpn+regionPages)
		}
	}
}

// TestRangeVPNsProtEdit: a protection change made through the handed PTE
// is what Translate sees; pages outside the range keep theirs.
func TestRangeVPNsProtEdit(t *testing.T) {
	as := newAS(t, 64)
	vpns := walkPages(t, as, ProtRW)
	as.RangeVPNs(walkStart, walkEnd, func(_ VPN, pte *PTE) { pte.Prot &^= ProtWrite })
	for _, vpn := range vpns {
		va := uint64(vpn) * PageSize
		_, _, fault := as.Translate(va, AccWrite)
		inside := vpn >= walkStart && vpn < walkEnd
		switch {
		case inside && (fault == nil || fault.Kind != FaultWriteProtect):
			t.Errorf("vpn %#x: write after the edit = %v, want a write-protect fault", vpn, fault)
		case !inside && fault != nil:
			t.Errorf("vpn %#x outside the range: write = %v", vpn, fault)
		}
		if _, _, fault := as.Translate(va, AccRead); fault != nil {
			t.Errorf("vpn %#x: read = %v", vpn, fault)
		}
	}
}

// TestUnmapRangeAcrossDirectories unmaps a range over three directories:
// frames are freed in ascending VPN order, the emptied middle directory is
// pooled, and the pages outside the range survive in their directories.
func TestUnmapRangeAcrossDirectories(t *testing.T) {
	mem := tmem.New(64)
	as := NewAddressSpace(mem)
	vpns := walkPages(t, as, ProtRW)
	// Remap in shuffled order so frame numbers do not follow VPN order.
	rand.New(rand.NewSource(3)).Shuffle(len(vpns), func(i, j int) { vpns[i], vpns[j] = vpns[j], vpns[i] })
	pfn := make(map[VPN]tmem.PFN)
	for _, vpn := range vpns {
		if err := as.Unmap(vpn); err != nil {
			t.Fatal(err)
		}
	}
	for _, vpn := range vpns {
		page, err := as.MapNew(vpn, ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		pfn[vpn] = page.PFN
	}
	var want []tmem.PFN
	for _, vpn := range inWalkRange(as.VPNs()) {
		want = append(want, pfn[vpn])
	}
	middle := as.dirs[walkKey+1]
	var freed []tmem.PFN
	mem.SetFrameObserver(func(alloc bool, p tmem.PFN) {
		if !alloc {
			freed = append(freed, p)
		}
	})
	if err := as.UnmapRange(uint64(walkStart)*PageSize, uint64(walkEnd-walkStart)*PageSize); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freed, want) {
		t.Errorf("freed frames %v, want %v (ascending VPN order)", freed, want)
	}
	if as.dirs[walkKey+1] != nil || len(as.dirPool) != 1 || as.dirPool[0] != middle {
		t.Errorf("the emptied middle directory was not pooled")
	}
	left := []VPN{walkBase, walkBase + 2*dirSize + 8, walkBase + 2*dirSize + 300}
	if got := as.VPNs(); !reflect.DeepEqual(got, left) {
		t.Errorf("after the unmap %#x are mapped, want %#x", got, left)
	}
}

// snapshotVPNs is the range walk as it was before walks went in place: it
// collects the mapped VPNs of [startVPN, endVPN) first, and the walk then
// looks each one up again.
func snapshotVPNs(as *AddressSpace, startVPN, endVPN VPN) []VPN {
	var out []VPN
	if startVPN >= endVPN || as.mapped == 0 {
		return out
	}
	startKey, endKey := startVPN>>dirBits, (endVPN-1)>>dirBits
	for key := startKey; key <= endKey; key++ {
		d := as.dirs[key]
		if d == nil {
			continue
		}
		lo, hi := VPN(0), VPN(dirSize)
		if key == startKey {
			lo = startVPN & dirMask
		}
		if key == endKey {
			hi = (endVPN-1)&dirMask + 1
		}
		for i := lo; i < hi; i++ {
			if d.ptes[i].Page != nil {
				out = append(out, key<<dirBits|i)
			}
		}
	}
	return out
}

// TestWalksMatchSnapshot is a seeded differential against the snapshot
// walk: over random page sets spread across five directories and random
// ranges, RangeVPNs visits the same pages with the same PTEs, and
// UnmapRange frees the same frames in the same order and leaves the same
// table as unmapping the snapshot page by page.
func TestWalksMatchSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := VPN(5 * dirSize)
		var pages []VPN
		for i, n := 0, rng.Intn(60); i < n; i++ {
			pages = append(pages, walkBase+VPN(rng.Intn(int(span))))
		}
		build := func() (*AddressSpace, *[]tmem.PFN) {
			mem := tmem.New(128)
			as := NewAddressSpace(mem)
			for _, vpn := range pages {
				if as.Lookup(vpn) == nil {
					if _, err := as.MapNew(vpn, ProtRW); err != nil {
						t.Fatal(err)
					}
				}
			}
			freed := new([]tmem.PFN)
			mem.SetFrameObserver(func(alloc bool, p tmem.PFN) {
				if !alloc {
					*freed = append(*freed, p)
				}
			})
			return as, freed
		}
		start := walkBase + VPN(rng.Intn(int(span)))
		end := start + VPN(rng.Intn(int(span)))

		as, freed := build()
		var want []*PTE
		for _, vpn := range snapshotVPNs(as, start, end) {
			if pte := as.Lookup(vpn); pte != nil {
				want = append(want, pte)
			}
		}
		var got []*PTE
		as.RangeVPNs(start, end, func(vpn VPN, pte *PTE) {
			if as.Lookup(vpn) != pte {
				t.Fatalf("seed %d: vpn %#x handed a PTE that is not its own", seed, vpn)
			}
			got = append(got, pte)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: [%#x, %#x) visited %d PTEs, snapshot walk %d", seed, start, end, len(got), len(want))
		}

		ref, refFreed := build()
		for _, vpn := range snapshotVPNs(ref, start, end) {
			if err := ref.Unmap(vpn); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.UnmapRange(uint64(start)*PageSize, uint64(end-start)*PageSize); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*freed, *refFreed) {
			t.Fatalf("seed %d: UnmapRange freed %v, snapshot unmap %v", seed, *freed, *refFreed)
		}
		if !reflect.DeepEqual(as.VPNs(), ref.VPNs()) || len(as.dirPool) != len(ref.dirPool) {
			t.Fatalf("seed %d: tables differ after the unmap", seed)
		}
	}
}
