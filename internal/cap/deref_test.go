package cap

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refCheckDeref is the four-step dereference check CheckDeref replaced,
// kept verbatim (bounds arithmetic included) as the differential oracle.
func refCheckDeref(c Capability, addr, n uint64, need Perm) error {
	if !c.tag {
		return ErrTagCleared
	}
	if c.otype != OTypeUnsealed {
		return ErrSealed
	}
	if c.perms&need != need {
		return fmt.Errorf("%w: have %v need %v", ErrPerm, c.perms, need)
	}
	inBounds := false
	if n == 0 {
		inBounds = addr >= c.base && addr <= c.base+c.length
	} else if end := addr + n; end >= addr {
		inBounds = addr >= c.base && end <= c.base+c.length
	}
	if !inBounds {
		return fmt.Errorf("%w: access [%#x,+%d) outside [%#x,%#x)", ErrBounds, addr, n, c.base, c.Top())
	}
	return nil
}

// sameDeref fails t unless CheckDeref and the oracle agree on c: both
// pass, or both fail with the same sentinel and the same message.
func sameDeref(t *testing.T, c Capability, addr, n uint64, need Perm) {
	t.Helper()
	got, want := c.CheckDeref(addr, n, need), refCheckDeref(c, addr, n, need)
	if (got == nil) != (want == nil) {
		t.Fatalf("%v.CheckDeref(%#x, %d, %v) = %v, oracle %v", c, addr, n, need, got, want)
	}
	if want == nil {
		return
	}
	for _, sentinel := range []error{ErrTagCleared, ErrSealed, ErrPerm, ErrBounds} {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			t.Fatalf("%v.CheckDeref(%#x, %d, %v): errors.Is(%v) = %v, oracle %v",
				c, addr, n, need, sentinel, errors.Is(got, sentinel), errors.Is(want, sentinel))
		}
	}
	if got.Error() != want.Error() {
		t.Fatalf("%v.CheckDeref(%#x, %d, %v) message %q, oracle %q", c, addr, n, need, got, want)
	}
}

func TestCheckDerefMatchesFourStepCheck(t *testing.T) {
	data := Root(0x1000, 0x100).WithPerms(PermData)
	sealed, err := data.Seal(Root(0, 0x1000).SetAddr(7))
	if err != nil {
		t.Fatal(err)
	}
	top := data.Top()
	cases := []struct {
		name string
		c    Capability
		addr uint64
		n    uint64
		need Perm
		want error
	}{
		{"pass", data, 0x1000, 16, PermLoad, nil},
		{"pass-to-top", data, top - 16, 16, PermStore, nil},
		{"untagged", data.Untag(), 0x1000, 8, PermLoad, ErrTagCleared},
		{"untagged-and-sealed", sealed.Untag(), 0x1000, 8, PermLoad, ErrTagCleared},
		{"sealed", sealed, 0x1000, 8, PermLoad, ErrSealed},
		{"missing-perm", data.WithPerms(PermRO), 0x1000, 8, PermStore, ErrPerm},
		{"missing-perm-and-bounds", data.WithPerms(PermRO), 0, 8, PermStore, ErrPerm},
		{"below-base", data, 0xfff, 1, PermLoad, ErrBounds},
		{"end-past-top", data, top - 8, 9, PermLoad, ErrBounds},
		{"start-at-top", data, top, 1, PermLoad, ErrBounds},
		{"zero-at-top", data, top, 0, PermLoad, nil},
		{"zero-at-base", data, 0x1000, 0, PermLoad, nil},
		{"zero-below-base", data, 0xfff, 0, PermLoad, ErrBounds},
		{"zero-past-top", data, top + 1, 0, PermLoad, ErrBounds},
		{"wrap", data, 0x1010, ^uint64(0), PermLoad, ErrBounds},
		{"wrap-whole-space", Root(0, ^uint64(0)), ^uint64(0) - 3, 8, PermLoad, ErrBounds},
		{"no-perm-needed", data, 0x1000, 4, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sameDeref(t, tc.c, tc.addr, tc.n, tc.need)
			err := tc.c.CheckDeref(tc.addr, tc.n, tc.need)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("CheckDeref = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCheckDerefRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20250917))
	perms := []Perm{0, PermLoad, PermStore, PermLoad | PermLoadCap, PermStore | PermStoreCap, PermExecute, PermData, PermRO, PermAll}
	edge := func(base, length uint64) uint64 {
		// Addresses clustered on the bounds, where off-by-one errors live,
		// plus the extremes of the address space.
		switch rng.Intn(7) {
		case 0:
			return base - uint64(rng.Intn(3))
		case 1:
			return base + uint64(rng.Intn(3))
		case 2:
			return base + length - uint64(rng.Intn(3))
		case 3:
			return base + length + uint64(rng.Intn(3))
		case 4:
			return ^uint64(0) - uint64(rng.Intn(32))
		case 5:
			return uint64(rng.Intn(32))
		default:
			if length == ^uint64(0) {
				return base + rng.Uint64()
			}
			return base + rng.Uint64()%(length+1)
		}
	}
	sizes := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return ^uint64(0) - uint64(rng.Intn(32))
		default:
			return uint64(1) << rng.Intn(13) // 1 .. 4096
		}
	}
	for i := 0; i < 200000; i++ {
		var c Capability
		switch rng.Intn(3) {
		case 0: // ordinary small object
			c.base = uint64(rng.Int63n(1<<40)) &^ 15
			c.length = uint64(rng.Intn(1 << 16))
		case 1: // near the top of the address space: Top() may wrap
			c.length = uint64(rng.Intn(1 << 12))
			c.base = ^uint64(0) - uint64(rng.Intn(1<<13))
		default: // huge bounds
			c.base = uint64(rng.Intn(1 << 12))
			c.length = ^uint64(0) - uint64(rng.Intn(1<<13))
		}
		c.cursor = c.base
		c.perms = perms[rng.Intn(len(perms))]
		c.tag = rng.Intn(8) != 0
		if rng.Intn(8) == 0 {
			c.otype = OType(1 + rng.Intn(100))
		} else {
			c.otype = OTypeUnsealed
		}
		sameDeref(t, c, edge(c.base, c.length), sizes(), perms[rng.Intn(len(perms))])
	}
}
