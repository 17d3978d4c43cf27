package cap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	c := Root(0x1000, 0x4000)
	if !c.Tag() {
		t.Fatal("root capability must be tagged")
	}
	if c.Base() != 0x1000 || c.Len() != 0x4000 || c.Top() != 0x5000 {
		t.Fatalf("bad bounds: %v", c)
	}
	if c.Addr() != c.Base() {
		t.Fatalf("root cursor should start at base, got %#x", c.Addr())
	}
	if !c.HasPerm(PermAll) {
		t.Fatal("root must carry all permissions")
	}
	if c.IsSealed() {
		t.Fatal("root must be unsealed")
	}
}

func TestNullCapability(t *testing.T) {
	n := Null()
	if n.Tag() {
		t.Fatal("null capability must be untagged")
	}
	if err := n.CheckDeref(0, 1, PermLoad); !errors.Is(err, ErrTagCleared) {
		t.Fatalf("deref of null: got %v, want ErrTagCleared", err)
	}
	var zero Capability
	if !zero.Equal(n) {
		t.Fatal("zero value must equal Null()")
	}
}

func TestCheckDeref(t *testing.T) {
	c := Root(0x1000, 0x100).WithPerms(PermData)
	cases := []struct {
		name string
		addr uint64
		n    uint64
		need Perm
		err  error
	}{
		{"ok-load", 0x1000, 16, PermLoad, nil},
		{"ok-store-end", 0x10f0, 16, PermStore, nil},
		{"below", 0xfff, 1, PermLoad, ErrBounds},
		{"beyond", 0x10f1, 16, PermLoad, ErrBounds},
		{"exec-denied", 0x1000, 4, PermExecute, ErrPerm},
		{"overflow", ^uint64(0) - 3, 8, PermLoad, ErrBounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.CheckDeref(tc.addr, tc.n, tc.need)
			if tc.err == nil && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.err != nil && !errors.Is(err, tc.err) {
				t.Fatalf("got %v, want %v", err, tc.err)
			}
		})
	}
}

func TestSetBoundsMonotonic(t *testing.T) {
	c := Root(0x1000, 0x1000)
	sub, err := c.SetAddr(0x1800).SetBounds(0x100)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if sub.Base() != 0x1800 || sub.Len() != 0x100 {
		t.Fatalf("bad derived bounds: %v", sub)
	}
	if !sub.Tag() {
		t.Fatal("derived capability must keep tag")
	}
	// Growing back is a monotonicity violation.
	if _, err := sub.SetAddr(0x1000).SetBounds(0x1000); !errors.Is(err, ErrMonotonic) {
		t.Fatalf("expected ErrMonotonic, got %v", err)
	}
	// Even growing by one byte past the top fails.
	if _, err := sub.SetAddr(0x1800).SetBounds(0x101); !errors.Is(err, ErrMonotonic) {
		t.Fatalf("expected ErrMonotonic, got %v", err)
	}
}

func TestSetBoundsOverflow(t *testing.T) {
	c := Root(0, ^uint64(0))
	if _, err := c.SetAddr(^uint64(0) - 10).SetBounds(100); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestWithPermsMonotonic(t *testing.T) {
	c := Root(0, 0x1000)
	ro := c.WithPerms(PermRO)
	if ro.HasPerm(PermStore) {
		t.Fatal("WithPerms must drop PermStore")
	}
	// Attempting to re-add permissions via WithPerms keeps intersection only.
	rw := ro.WithPerms(PermAll)
	if rw.Perms() != PermRO {
		t.Fatalf("permissions grew: %v", rw.Perms())
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	c := Root(0x1000, 0x100).WithPerms(PermData)
	sealer := Root(0, 0x1000).SetAddr(42)
	sealed, err := c.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if !sealed.IsSealed() || sealed.OType() != 42 {
		t.Fatalf("bad sealed cap: %v", sealed)
	}
	// Sealed caps cannot be dereferenced.
	if err := sealed.CheckDeref(0x1000, 1, PermLoad); !errors.Is(err, ErrSealed) {
		t.Fatalf("deref of sealed: got %v", err)
	}
	// Mutation of a sealed cap clears the tag.
	if moved := sealed.Add(8); moved.Tag() {
		t.Fatal("arithmetic on sealed cap must clear tag")
	}
	if narrowed := sealed.WithPerms(PermRO); narrowed.Tag() {
		t.Fatal("perm change on sealed cap must clear tag")
	}
	// Unseal with wrong otype fails.
	badUnsealer := Root(0, 0x1000).SetAddr(43)
	if _, err := sealed.Unseal(badUnsealer); !errors.Is(err, ErrBadOType) {
		t.Fatalf("unseal with wrong otype: got %v", err)
	}
	// Correct unseal restores the original.
	unsealed, err := sealed.Unseal(sealer)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !unsealed.Equal(c) {
		t.Fatalf("round trip mismatch: %v vs %v", unsealed, c)
	}
}

func TestSealRequiresPermission(t *testing.T) {
	c := Root(0x1000, 0x100)
	noSeal := Root(0, 0x1000).WithPerms(PermData).SetAddr(42)
	if _, err := c.Seal(noSeal); !errors.Is(err, ErrPerm) {
		t.Fatalf("seal without PermSeal: got %v", err)
	}
}

func TestSentry(t *testing.T) {
	code := Root(0x4000, 0x1000).WithPerms(PermCode)
	sentry, err := code.SealEntry()
	if err != nil {
		t.Fatalf("SealEntry: %v", err)
	}
	if sentry.OType() != OTypeSentry {
		t.Fatalf("otype = %d, want sentry", sentry.OType())
	}
	// Sentries cannot be dereferenced or rebounded.
	if err := sentry.CheckDeref(0x4000, 4, PermLoad); !errors.Is(err, ErrSealed) {
		t.Fatalf("deref sentry: %v", err)
	}
	if _, err := sentry.SetBounds(16); !errors.Is(err, ErrSealed) {
		t.Fatalf("SetBounds sentry: %v", err)
	}
	target, err := sentry.InvokeSentry()
	if err != nil {
		t.Fatalf("InvokeSentry: %v", err)
	}
	if target.IsSealed() || !target.Equal(code) {
		t.Fatalf("invoke should yield the original code cap, got %v", target)
	}
	// A data capability without PermExecute cannot become a sentry.
	data := Root(0, 0x100).WithPerms(PermData)
	if _, err := data.SealEntry(); !errors.Is(err, ErrPerm) {
		t.Fatalf("SealEntry on data cap: %v", err)
	}
	// Invoking a non-sentry fails.
	if _, err := code.InvokeSentry(); !errors.Is(err, ErrBadOType) {
		t.Fatalf("InvokeSentry on unsealed: %v", err)
	}
}

func TestRebaseAndClamp(t *testing.T) {
	// A parent-region capability relocated into the child region.
	parent := Root(0x10000, 0x1000).SetAddr(0x10420)
	delta := int64(0x90000)
	child := parent.Rebase(delta)
	if child.Base() != 0xa0000 || child.Addr() != 0xa0420 {
		t.Fatalf("bad rebase: %v", child)
	}
	if child.Len() != parent.Len() {
		t.Fatal("rebase must preserve length")
	}
	// Clamping restricts over-wide bounds to the child region.
	wide := Root(0, 1<<40).SetAddr(0xa0000)
	clamped := wide.ClampBounds(0xa0000, 0xb0000)
	if clamped.Base() != 0xa0000 || clamped.Top() != 0xb0000 {
		t.Fatalf("bad clamp: %v", clamped)
	}
	// Degenerate clamp yields an empty, harmless capability.
	empty := Root(0, 0x1000).ClampBounds(0x5000, 0x4000)
	if empty.Len() != 0 {
		t.Fatalf("degenerate clamp should be empty, got %v", empty)
	}
}

func TestUntag(t *testing.T) {
	c := Root(0, 0x1000).Untag()
	if c.Tag() {
		t.Fatal("Untag failed")
	}
	if _, err := c.SetBounds(16); !errors.Is(err, ErrTagCleared) {
		t.Fatalf("SetBounds on untagged: %v", err)
	}
}

func TestPermString(t *testing.T) {
	if got := PermData.String(); got != "rwRWg" {
		t.Fatalf("PermData.String() = %q", got)
	}
	if got := Perm(0).String(); got != "-" {
		t.Fatalf("empty perms = %q", got)
	}
}

// randomCap builds an arbitrary valid derived capability for property tests.
func randomCap(r *rand.Rand) Capability {
	base := uint64(r.Intn(1 << 20))
	length := uint64(r.Intn(1<<20) + 1)
	c := Root(base, length)
	c = c.SetAddr(base + uint64(r.Intn(int(length))))
	return c
}

// Property: any chain of SetBounds/WithPerms derivations never escapes the
// original bounds or gains permissions (the monotonicity invariant μFork's
// isolation argument rests on, §4.3).
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomCap(r)
		c := orig
		for i := 0; i < int(steps%16)+1; i++ {
			switch r.Intn(3) {
			case 0:
				if c.Len() == 0 {
					continue
				}
				off := uint64(r.Intn(int(c.Len())))
				n := uint64(r.Intn(int(c.Len()-off)) + 1)
				d, err := c.SetAddr(c.Base() + off).SetBounds(n)
				if errors.Is(err, ErrNotRepresentable) {
					continue // legal refusal: compressed encoding limits
				}
				if err != nil {
					return false
				}
				c = d
			case 1:
				c = c.WithPerms(Perm(r.Intn(1 << 10)))
			case 2:
				c = c.SetAddr(c.Base())
			}
			if c.Base() < orig.Base() || c.Top() > orig.Top() {
				return false
			}
			if c.Perms()&^orig.Perms() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rebase preserves length and relative cursor offset exactly.
func TestRebaseProperty(t *testing.T) {
	f := func(seed int64, rawDelta int32) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCap(r)
		delta := int64(rawDelta)
		d := c.Rebase(delta)
		return d.Len() == c.Len() &&
			d.Addr()-d.Base() == c.Addr()-c.Base() &&
			int64(d.Base())-int64(c.Base()) == delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
