// Package cap implements a software model of CHERI hardware capabilities.
//
// A capability is an unforgeable, bounds-carrying pointer. The model follows
// the CHERI ISA (UCAM-CL-TR-987) semantics that μFork depends on:
//
//   - every capability carries base, length, cursor (address), permissions
//     and an object type (otype) used for sealing;
//   - a one-bit validity tag marks genuine capabilities; any illegitimate
//     modification clears the tag and later dereferences fail;
//   - monotonicity: bounds and permissions can only shrink, never grow;
//   - sealed capabilities are immutable and non-dereferenceable until
//     unsealed, and sealed entry ("sentry") capabilities provide trapless,
//     unforgeable jumps into the kernel.
//
// Capabilities occupy one 16-byte granule in tagged memory (package tmem).
package cap

import (
	"errors"
	"fmt"
)

// GranuleSize is the in-memory footprint of one capability: CHERI-128
// capabilities occupy a 16-byte, 16-byte-aligned granule, and the memory
// tag plane holds one validity bit per granule.
const GranuleSize = 16

// Perm is a capability permission bit set. Permissions are monotonic: they
// can be cleared but never set on a derived capability.
type Perm uint16

const (
	// PermLoad allows data loads through the capability.
	PermLoad Perm = 1 << iota
	// PermStore allows data stores through the capability.
	PermStore
	// PermExecute allows instruction fetch through the capability.
	PermExecute
	// PermLoadCap allows loading capabilities (tagged granules).
	PermLoadCap
	// PermStoreCap allows storing capabilities (tagged granules).
	PermStoreCap
	// PermSeal allows sealing other capabilities with otypes in bounds.
	PermSeal
	// PermUnseal allows unsealing capabilities with otypes in bounds.
	PermUnseal
	// PermInvoke allows invoking sealed (sentry) capabilities.
	PermInvoke
	// PermSystem gates access to privileged system registers and
	// instructions (MSR/MRS on Morello). User capabilities never carry it;
	// this is how μFork prevents same-EL user code from executing
	// privileged instructions (§4.4, principle 2).
	PermSystem
	// PermGlobal marks a capability as storable anywhere (vs. local).
	PermGlobal
)

// PermAll is every permission bit; only root capabilities carry it.
const PermAll = PermLoad | PermStore | PermExecute | PermLoadCap |
	PermStoreCap | PermSeal | PermUnseal | PermInvoke | PermSystem | PermGlobal

// PermData is the permission set for ordinary read-write data capabilities.
const PermData = PermLoad | PermStore | PermLoadCap | PermStoreCap | PermGlobal

// PermRO is the permission set for read-only data capabilities.
const PermRO = PermLoad | PermLoadCap | PermGlobal

// PermCode is the permission set for executable (PCC-style) capabilities.
const PermCode = PermLoad | PermExecute | PermGlobal

// String returns a compact textual form such as "rwRW" for debugging.
func (p Perm) String() string {
	flags := []struct {
		bit Perm
		c   byte
	}{
		{PermLoad, 'r'}, {PermStore, 'w'}, {PermExecute, 'x'},
		{PermLoadCap, 'R'}, {PermStoreCap, 'W'}, {PermSeal, 's'},
		{PermUnseal, 'u'}, {PermInvoke, 'i'}, {PermSystem, 'S'},
		{PermGlobal, 'g'},
	}
	out := make([]byte, 0, len(flags))
	for _, f := range flags {
		if p&f.bit != 0 {
			out = append(out, f.c)
		}
	}
	if len(out) == 0 {
		return "-"
	}
	return string(out)
}

// OType is a capability object type. OTypeUnsealed marks ordinary,
// dereferenceable capabilities; any other value marks a sealed capability.
type OType uint32

// OTypeUnsealed is the otype of ordinary (non-sealed) capabilities.
const OTypeUnsealed OType = 0

// OTypeSentry seals kernel entry capabilities. Invoking a sentry capability
// transfers control to its (fixed) target: the system call handler. This is
// the trapless domain-switch mechanism μFork uses for user→kernel
// transitions (§4.4, principle 1).
const OTypeSentry OType = 1

// Errors reported by capability operations.
var (
	ErrTagCleared    = errors.New("cap: capability tag cleared")
	ErrSealed        = errors.New("cap: operation on sealed capability")
	ErrNotSealed     = errors.New("cap: capability is not sealed")
	ErrBounds        = errors.New("cap: bounds violation")
	ErrPerm          = errors.New("cap: permission violation")
	ErrMonotonic     = errors.New("cap: monotonicity violation")
	ErrBadOType      = errors.New("cap: object type mismatch")
	ErrMisaligned    = errors.New("cap: address not 16-byte aligned")
	ErrLengthOverlow = errors.New("cap: bounds overflow")
	// ErrNotRepresentable is returned by SetBounds when the requested
	// bounds cannot be encoded by the compressed capability format.
	ErrNotRepresentable = errors.New("cap: bounds not representable")
)

// mantissaBits models the precision of the compressed (CHERI-128 /
// "CHERI Concentrate") bounds encoding: bounds of objects up to
// 2^mantissaBits bytes are exact; larger objects require base and length
// aligned to RepresentableAlign. This is why CHERI allocators — including
// the tinyalloc port in the paper's §4.1 — must round and align large
// allocations.
const mantissaBits = 14

// RepresentableAlign returns the alignment the compressed encoding
// requires for base and length of an object of the given length.
func RepresentableAlign(length uint64) uint64 {
	if length < 1<<mantissaBits {
		return 1
	}
	// ceil(log2(length)) - mantissaBits
	e := 0
	for l := length - 1; l != 0; l >>= 1 {
		e++
	}
	shift := e - mantissaBits
	if shift <= 0 {
		return 1
	}
	return 1 << shift
}

// RepresentableLength rounds length up to the next representable value.
func RepresentableLength(length uint64) uint64 {
	a := RepresentableAlign(length)
	return (length + a - 1) &^ (a - 1)
}

// Representable reports whether [base, base+length) is encodable exactly.
func Representable(base, length uint64) bool {
	a := RepresentableAlign(length)
	return base%a == 0 && length%a == 0
}

// Capability is a 129-bit CHERI capability: 128 bits of bounds, address,
// permissions and otype, plus the out-of-band validity tag.
//
// The zero value is an untagged (invalid) null capability, matching the
// CHERI null capability.
//
// Accessors and predicates take a pointer receiver. A Capability is too
// large for the Go compiler to keep in registers, so each inlined call
// on a value receiver would copy all of it; every simulated memory access
// runs several of them. Operations that derive a new capability take and
// return values.
type Capability struct {
	base   uint64
	length uint64
	cursor uint64
	perms  Perm
	otype  OType
	tag    bool
}

// Root returns the almighty capability over [base, base+length): full
// permissions, unsealed, tagged. Only the machine reset sequence (kernel
// boot) may mint roots; everything else derives from them monotonically.
func Root(base, length uint64) Capability {
	return Capability{base: base, length: length, cursor: base, perms: PermAll, tag: true}
}

// Null returns the untagged null capability.
func Null() Capability { return Capability{} }

// Tag reports whether the validity tag is set.
func (c *Capability) Tag() bool { return c.tag }

// Base returns the lower bound.
func (c *Capability) Base() uint64 { return c.base }

// Len returns the length of the bounds region.
func (c *Capability) Len() uint64 { return c.length }

// Top returns the exclusive upper bound (base+length).
func (c *Capability) Top() uint64 { return c.base + c.length }

// Addr returns the cursor (the address the capability points at).
func (c *Capability) Addr() uint64 { return c.cursor }

// Perms returns the permission bit set.
func (c *Capability) Perms() Perm { return c.perms }

// OType returns the object type; OTypeUnsealed for ordinary capabilities.
func (c *Capability) OType() OType { return c.otype }

// IsSealed reports whether the capability is sealed.
func (c *Capability) IsSealed() bool { return c.otype != OTypeUnsealed }

// HasPerm reports whether every permission in p is present.
func (c *Capability) HasPerm(p Perm) bool { return c.perms&p == p }

// InBounds reports whether an access of size n at addr lies fully within
// the capability's bounds.
func (c *Capability) InBounds(addr, n uint64) bool {
	if n == 0 {
		return addr >= c.base && addr <= c.Top()
	}
	end := addr + n
	if end < addr { // overflow
		return false
	}
	return addr >= c.base && end <= c.Top()
}

// Untag returns a copy with the validity tag cleared. This models any
// illegitimate manipulation: the bit pattern survives, the authority does
// not.
func (c Capability) Untag() Capability {
	c.tag = false
	return c
}

// Permits reports whether a dereference of size n at address addr
// requiring permissions need passes the four CHERI runtime checks, in
// the order they are evaluated: tag set, unsealed, permissions, bounds.
// It inlines into every simulated access; a CI step checks that it still
// does.
func (c *Capability) Permits(addr, n uint64, need Perm) bool {
	return c.tag && !c.IsSealed() && c.HasPerm(need) && c.InBounds(addr, n)
}

// CheckDeref validates a dereference of size n at address addr requiring
// permissions need: nil when Permits, else an error naming the first
// check that failed.
func (c Capability) CheckDeref(addr, n uint64, need Perm) error {
	if c.Permits(addr, n, need) {
		return nil
	}
	return c.derefError(addr, n, need)
}

// derefError is CheckDeref's failure path, kept out of line.
func (c Capability) derefError(addr, n uint64, need Perm) error {
	if !c.tag {
		return ErrTagCleared
	}
	if c.IsSealed() {
		return ErrSealed
	}
	if !c.HasPerm(need) {
		return fmt.Errorf("%w: have %v need %v", ErrPerm, c.perms, need)
	}
	return fmt.Errorf("%w: access [%#x,+%d) outside [%#x,%#x)", ErrBounds, addr, n, c.base, c.Top())
}

// SetAddr returns a copy with the cursor set to addr. The cursor may move
// out of bounds (CHERI permits out-of-bounds cursors as long as the value
// remains representable); dereference checks catch any actual violation.
func (c Capability) SetAddr(addr uint64) Capability {
	if c.IsSealed() {
		// Mutating a sealed capability clears the tag.
		c.tag = false
	}
	c.cursor = addr
	return c
}

// Add returns a copy with the cursor advanced by delta (pointer
// arithmetic). Sealed capabilities lose their tag.
func (c Capability) Add(delta int64) Capability {
	return c.SetAddr(uint64(int64(c.cursor) + delta))
}

// SetBounds derives a capability whose bounds are [addr, addr+length) where
// addr is the current cursor. Deriving bounds outside the existing bounds is
// a monotonicity violation and fails; bounds the compressed encoding cannot
// represent exactly fail with ErrNotRepresentable (the CSetBoundsExact
// discipline — callers such as the allocator align and round instead of
// silently widening authority).
func (c Capability) SetBounds(length uint64) (Capability, error) {
	if !c.tag {
		return c.Untag(), ErrTagCleared
	}
	if c.IsSealed() {
		return c.Untag(), ErrSealed
	}
	newBase := c.cursor
	newTop := newBase + length
	if newTop < newBase {
		return c.Untag(), ErrLengthOverlow
	}
	if newBase < c.base || newTop > c.Top() {
		return c.Untag(), fmt.Errorf("%w: [%#x,%#x) not within [%#x,%#x)",
			ErrMonotonic, newBase, newTop, c.base, c.Top())
	}
	if !Representable(newBase, length) {
		return c.Untag(), fmt.Errorf("%w: [%#x,+%#x) needs %d-byte alignment",
			ErrNotRepresentable, newBase, length, RepresentableAlign(length))
	}
	c.base = newBase
	c.length = length
	c.cursor = newBase
	return c, nil
}

// WithPerms derives a capability whose permissions are the intersection of
// the current permissions and p (CAndPerm). Monotonic by construction.
func (c Capability) WithPerms(p Perm) Capability {
	if c.IsSealed() {
		c.tag = false
	}
	c.perms &= p
	return c
}

// Seal seals c with the otype designated by the sealing capability's
// cursor. The sealer must be tagged, unsealed, hold PermSeal, and its
// cursor must be in bounds.
func (c Capability) Seal(sealer Capability) (Capability, error) {
	if !c.tag || !sealer.tag {
		return c.Untag(), ErrTagCleared
	}
	if c.IsSealed() {
		return c.Untag(), ErrSealed
	}
	if !sealer.HasPerm(PermSeal) {
		return c.Untag(), ErrPerm
	}
	if !sealer.InBounds(sealer.cursor, 1) {
		return c.Untag(), ErrBounds
	}
	ot := OType(sealer.cursor)
	if ot == OTypeUnsealed {
		return c.Untag(), ErrBadOType
	}
	c.otype = ot
	return c, nil
}

// Unseal unseals c using an unsealing capability whose cursor designates
// the matching otype.
func (c Capability) Unseal(unsealer Capability) (Capability, error) {
	if !c.tag || !unsealer.tag {
		return c.Untag(), ErrTagCleared
	}
	if !c.IsSealed() {
		return c.Untag(), ErrNotSealed
	}
	if !unsealer.HasPerm(PermUnseal) {
		return c.Untag(), ErrPerm
	}
	if OType(unsealer.cursor) != c.otype {
		return c.Untag(), ErrBadOType
	}
	c.otype = OTypeUnsealed
	return c, nil
}

// SealEntry seals c as a sentry (sealed entry) capability. Sentries can be
// invoked but not inspected or modified; they are the kernel's trapless
// syscall entry tokens.
func (c Capability) SealEntry() (Capability, error) {
	if !c.tag {
		return c.Untag(), ErrTagCleared
	}
	if c.IsSealed() {
		return c.Untag(), ErrSealed
	}
	if !c.HasPerm(PermExecute) {
		return c.Untag(), ErrPerm
	}
	c.otype = OTypeSentry
	return c, nil
}

// InvokeSentry validates invocation of a sentry capability and returns the
// unsealed target. It models the CInvoke/branch-to-sentry instruction: the
// only way for user code to enter kernel code.
func (c Capability) InvokeSentry() (Capability, error) {
	if !c.tag {
		return Null(), ErrTagCleared
	}
	if c.otype != OTypeSentry {
		return Null(), ErrBadOType
	}
	c.otype = OTypeUnsealed
	return c, nil
}

// Rebase relocates the capability by delta bytes: base and cursor both
// move. This is the primitive μFork's relocation pass applies to
// capabilities found (via their tags) in copied pages. It is a privileged
// operation — only the kernel's relocation pass may use it, since it is
// not monotonic in general.
func (c Capability) Rebase(delta int64) Capability {
	c.base = uint64(int64(c.base) + delta)
	c.cursor = uint64(int64(c.cursor) + delta)
	return c
}

// ClampBounds restricts the capability's bounds to the intersection with
// [lo, hi). Used by μFork to guarantee relocated capabilities cannot reach
// outside the child μprocess region. The cursor is preserved.
func (c Capability) ClampBounds(lo, hi uint64) Capability {
	base := c.base
	top := c.Top()
	if base < lo {
		base = lo
	}
	if top > hi {
		top = hi
	}
	if top < base {
		top = base
	}
	c.base = base
	c.length = top - base
	return c
}

// Equal reports full structural equality including the tag.
func (c Capability) Equal(o Capability) bool { return c == o }

// String implements fmt.Stringer.
func (c Capability) String() string {
	t := "v"
	if !c.tag {
		t = "-"
	}
	s := ""
	if c.IsSealed() {
		s = fmt.Sprintf(" sealed(%d)", c.otype)
	}
	return fmt.Sprintf("cap{%s %s addr=%#x bounds=[%#x,%#x)%s}", t, c.perms, c.cursor, c.base, c.Top(), s)
}
