package vm

import (
	"math/rand"
	"testing"

	"ufork/internal/tmem"
)

// regionPages is a 256 MiB μprocess region in pages: 128 directories.
const regionPages = (256 << 20) / PageSize

// refTable is the reference page table the directory cache is checked
// against: a plain map with no directories and no cache.
type refTable map[VPN]*PTE

// agree fails t unless Lookup and Translate on as match ref for every
// VPN in vpns.
func (ref refTable) agree(t *testing.T, as *AddressSpace, vpns []VPN, step int) {
	t.Helper()
	for _, vpn := range vpns {
		want := ref[vpn]
		got := as.Lookup(vpn)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Fatalf("step %d: Lookup(%#x) = %+v, want %+v", step, vpn, got, want)
		}
		va := uint64(vpn)*PageSize + 8
		pfn, off, fault := as.Translate(va, AccRead)
		switch {
		case want == nil:
			if fault == nil || fault.Kind != FaultNotMapped {
				t.Fatalf("step %d: Translate(%#x) = %d, %v; want not-mapped", step, va, pfn, fault)
			}
		case want.Prot&ProtRead == 0:
			if fault == nil || fault.Kind != FaultNoRead {
				t.Fatalf("step %d: Translate(%#x) = %d, %v; want no-read", step, va, pfn, fault)
			}
		default:
			if fault != nil || pfn != want.Page.PFN || off != 8 {
				t.Fatalf("step %d: Translate(%#x) = %d+%d, %v; want %d+8", step, va, pfn, off, fault, want.Page.PFN)
			}
		}
	}
}

// TestDirCacheMatchesReference churns Map, Unmap and Protect over two
// regions 256 MiB apart, whose directories at equal offsets share their
// low key bits, with few pages per directory so directories empty, pool
// and come back under other keys. After every step every VPN must look
// up and translate as in a plain map.
func TestDirCacheMatchesReference(t *testing.T) {
	as := NewAddressSpace(tmem.New(1 << 12))
	ref := refTable{}
	rng := rand.New(rand.NewSource(7))
	var vpns []VPN
	for _, region := range []VPN{1 << 18, 1<<18 + regionPages} {
		for d := VPN(0); d < 8; d++ {
			for _, slot := range []VPN{0, 1, dirSize - 1} {
				vpns = append(vpns, region+d*dirSize+slot)
			}
		}
	}
	prots := []Prot{ProtRead, ProtRW, 0, ProtRead | ProtCapLoadFault}
	for step := 0; step < 4000; step++ {
		vpn := vpns[rng.Intn(len(vpns))]
		switch op := rng.Intn(3); {
		case ref[vpn] == nil && op < 2:
			// Map a fresh frame, or share another mapping's page.
			var page *Page
			if other := ref[vpns[rng.Intn(len(vpns))]]; other != nil && rng.Intn(2) == 0 {
				page = other.Page
			}
			prot := prots[rng.Intn(len(prots))]
			if page == nil {
				p, err := as.MapNew(vpn, prot)
				if err != nil {
					t.Fatal(err)
				}
				page = p
			} else if err := as.Map(vpn, page, prot); err != nil {
				t.Fatal(err)
			}
			ref[vpn] = &PTE{Page: page, Prot: prot}
		case ref[vpn] != nil && op == 0:
			prot := prots[rng.Intn(len(prots))]
			if err := as.Protect(vpn, prot); err != nil {
				t.Fatal(err)
			}
			ref[vpn].Prot = prot
		case ref[vpn] != nil:
			if err := as.Unmap(vpn); err != nil {
				t.Fatal(err)
			}
			delete(ref, vpn)
		}
		ref.agree(t, as, vpns, step)
	}
}

// TestDirCachePooledDirReuse empties a directory, so it returns to the
// pool, and maps a page at the same offset of the next region: the pooled
// node comes back under the new key, and the old key must not find it
// through a stale cache entry.
func TestDirCachePooledDirReuse(t *testing.T) {
	as := NewAddressSpace(tmem.New(64))
	oldKey := VPN(1<<18) >> dirBits
	newKey := oldKey + regionPages>>dirBits
	if dcacheSlot(newKey) == dcacheSlot(oldKey) {
		t.Fatalf("keys %#x and %#x, one region apart, share cache slot %d", oldKey, newKey, dcacheSlot(oldKey))
	}
	oldVPN, newVPN := oldKey<<dirBits|3, newKey<<dirBits|3
	ref := refTable{}
	vpns := []VPN{oldVPN, newVPN, oldVPN + 1, newVPN + 1}

	page, err := as.MapNew(oldVPN, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	ref[oldVPN] = &PTE{Page: page, Prot: ProtRW}
	ref.agree(t, as, vpns, 0)
	pooled := as.dirs[oldKey]

	if err := as.Unmap(oldVPN); err != nil {
		t.Fatal(err)
	}
	delete(ref, oldVPN)
	if len(as.dirPool) != 1 || as.dirPool[0] != pooled {
		t.Fatal("emptied directory was not pooled")
	}
	ref.agree(t, as, vpns, 1)

	page, err = as.MapNew(newVPN, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	ref[newVPN] = &PTE{Page: page, Prot: ProtRead}
	if as.dirs[newKey] != pooled {
		t.Fatal("new key did not reuse the pooled directory")
	}
	ref.agree(t, as, vpns, 2)
}
