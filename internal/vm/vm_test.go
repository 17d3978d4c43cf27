package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ufork/internal/tmem"
)

func newAS(t *testing.T, frames int) *AddressSpace {
	t.Helper()
	return NewAddressSpace(tmem.New(frames))
}

func TestMapUnmap(t *testing.T) {
	as := newAS(t, 8)
	page, err := as.MapNew(5, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if page.Refs != 1 {
		t.Fatalf("refs = %d", page.Refs)
	}
	if err := as.Map(5, page, ProtRW); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("remap: %v", err)
	}
	if as.MappedPages() != 1 {
		t.Fatalf("mapped = %d", as.MappedPages())
	}
	if err := as.Unmap(5); err != nil {
		t.Fatal(err)
	}
	if as.Mem().Allocated() != 0 {
		t.Fatal("frame leaked after last unmap")
	}
	if err := as.Unmap(5); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: %v", err)
	}
}

func TestSharedRefcount(t *testing.T) {
	mem := tmem.New(8)
	as1 := NewAddressSpace(mem)
	as2 := NewAddressSpace(mem)
	page, err := as1.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(7, page, ProtRead); err != nil {
		t.Fatal(err)
	}
	if page.Refs != 2 {
		t.Fatalf("refs = %d", page.Refs)
	}
	if err := as1.Unmap(1); err != nil {
		t.Fatal(err)
	}
	if page.Refs != 1 || mem.Allocated() != 1 {
		t.Fatalf("refs=%d allocated=%d", page.Refs, mem.Allocated())
	}
	if err := as2.Unmap(7); err != nil {
		t.Fatal(err)
	}
	if mem.Allocated() != 0 {
		t.Fatal("frame leaked")
	}
}

func TestTranslateFaults(t *testing.T) {
	as := newAS(t, 8)
	if _, err := as.MapNew(1, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(2, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(3, ProtRead|ProtCapLoadFault); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(4, 0); err != nil { // CoA page: no access at all
		t.Fatal(err)
	}
	if _, err := as.MapNew(5, ProtRX); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		va   uint64
		acc  Access
		kind FaultKind
	}{
		{"read-ok", 1 * PageSize, AccRead, FaultNone},
		{"write-ro", 1 * PageSize, AccWrite, FaultWriteProtect},
		{"capwrite-ro", 1 * PageSize, AccCapWrite, FaultWriteProtect},
		{"write-ok", 2*PageSize + 100, AccWrite, FaultNone},
		{"capread-ok", 2 * PageSize, AccCapRead, FaultNone},
		{"capread-lcfault", 3 * PageSize, AccCapRead, FaultCapLoad},
		{"read-through-lcfault", 3 * PageSize, AccRead, FaultNone},
		{"coa-read", 4 * PageSize, AccRead, FaultNoRead},
		{"coa-write", 4 * PageSize, AccWrite, FaultNoRead},
		{"exec-ok", 5 * PageSize, AccExec, FaultNone},
		{"exec-data", 2 * PageSize, AccExec, FaultNoExec},
		{"unmapped", 99 * PageSize, AccRead, FaultNotMapped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, fault := as.Translate(tc.va, tc.acc)
			got := FaultNone
			if fault != nil {
				got = fault.Kind
				if fault.VA != tc.va {
					t.Fatalf("fault VA = %#x, want %#x", fault.VA, tc.va)
				}
			}
			if got != tc.kind {
				t.Fatalf("fault = %v, want %v", got, tc.kind)
			}
		})
	}
	if as.Stats.Fault(FaultWriteProtect) != 2 {
		t.Fatalf("write-protect fault count = %d", as.Stats.Fault(FaultWriteProtect))
	}
}

func TestMakePrivateCopies(t *testing.T) {
	mem := tmem.New(8)
	parent := NewAddressSpace(mem)
	child := NewAddressSpace(mem)
	page, err := parent.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteBytes(page.PFN, 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := child.Map(1, page, ProtRead); err != nil {
		t.Fatal(err)
	}

	newPage, copied, err := child.MakePrivate(1, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if !copied {
		t.Fatal("expected a physical copy for a shared page")
	}
	if newPage == page || newPage.Refs != 1 || page.Refs != 1 {
		t.Fatalf("bad descriptors: new=%+v old=%+v", newPage, page)
	}
	buf := make([]byte, 8)
	if err := mem.ReadBytes(newPage.PFN, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("copy content = %q", buf)
	}
	// The parent's frame is untouched by child writes.
	if err := mem.WriteBytes(newPage.PFN, 0, []byte("CHANGED!")); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBytes(page.PFN, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatal("child write leaked into parent frame")
	}
	if child.Stats.PagesCopied.Value() != 1 {
		t.Fatalf("PagesCopied = %d", child.Stats.PagesCopied.Value())
	}
}

func TestMakePrivateAdoptsLastRef(t *testing.T) {
	as := newAS(t, 8)
	page, err := as.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	got, copied, err := as.MakePrivate(1, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if copied {
		t.Fatal("sole reference must be adopted, not copied")
	}
	if got != page {
		t.Fatal("adoption must keep the same page")
	}
	if as.Stats.PagesAdopted.Value() != 1 {
		t.Fatalf("PagesAdopted = %d", as.Stats.PagesAdopted.Value())
	}
	// And the new protection applies.
	if _, _, fault := as.Translate(PageSize, AccWrite); fault != nil {
		t.Fatalf("write after adopt: %v", fault)
	}
}

func TestUnmapRange(t *testing.T) {
	as := newAS(t, 16)
	for vpn := VPN(0); vpn < 8; vpn++ {
		if _, err := as.MapNew(vpn, ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.UnmapRange(2*PageSize, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 4 {
		t.Fatalf("mapped = %d", as.MappedPages())
	}
	for _, vpn := range []VPN{0, 1, 6, 7} {
		if as.Lookup(vpn) == nil {
			t.Fatalf("vpn %d should survive", vpn)
		}
	}
}

func TestRangeVPNsOrdered(t *testing.T) {
	as := newAS(t, 64)
	for _, vpn := range []VPN{9, 3, 27, 14, 1} {
		if _, err := as.MapNew(vpn, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	var got []VPN
	as.RangeVPNs(0, 100, func(vpn VPN, _ *PTE) { got = append(got, vpn) })
	want := []VPN{1, 3, 9, 14, 27}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// Property: under random map/unmap/share/privatize sequences, the allocated
// frame count always equals the number of distinct page descriptors
// referenced, and refcounts equal the number of referencing PTEs.
func TestRefcountInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem := tmem.New(256)
		spaces := []*AddressSpace{NewAddressSpace(mem), NewAddressSpace(mem)}
		for i := 0; i < 200; i++ {
			as := spaces[r.Intn(2)]
			vpn := VPN(r.Intn(32))
			switch r.Intn(4) {
			case 0:
				if as.Lookup(vpn) == nil {
					if _, err := as.MapNew(vpn, ProtRW); err != nil {
						return false
					}
				}
			case 1:
				if as.Lookup(vpn) != nil {
					if err := as.Unmap(vpn); err != nil {
						return false
					}
				}
			case 2: // share a page into the other space
				other := spaces[0]
				if as == other {
					other = spaces[1]
				}
				if pte := as.Lookup(vpn); pte != nil && other.Lookup(vpn) == nil {
					if err := other.Map(vpn, pte.Page, ProtRead); err != nil {
						return false
					}
				}
			case 3:
				if as.Lookup(vpn) != nil {
					if _, _, err := as.MakePrivate(vpn, ProtRW); err != nil {
						return false
					}
				}
			}
		}
		// Check invariants.
		refs := make(map[*Page]int)
		for _, as := range spaces {
			for _, vpn := range as.VPNs() {
				refs[as.Lookup(vpn).Page]++
			}
		}
		for p, n := range refs {
			if p.Refs != n {
				return false
			}
		}
		return mem.Allocated() == len(refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
