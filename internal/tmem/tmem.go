// Package tmem implements tagged physical memory: the DRAM + tag-plane
// substrate CHERI systems run on.
//
// Memory is organised in 4 KiB frames. Each frame carries, beside its data
// bytes, one validity-tag bit per 16-byte capability granule, plus the
// authoritative capability value for tagged granules. The tag plane is the
// mechanism μFork exploits for pointer identification: a granule whose tag
// is set is — by hardware guarantee — a genuine capability, so the
// relocation pass can find every absolute memory reference in a page by a
// 16-byte-stride tag scan with zero false positives (§3.4, block 3).
//
// The tag plane is stored compressed, as on real Morello hardware (whose
// tag controller keeps tags in dedicated packed storage, not one byte per
// granule): 256 granule tags pack into four uint64 bitset words, the scan
// walks set bits with bits.TrailingZeros64, and a per-frame cached tag
// population count lets capability-free pages skip the scan entirely.
//
// Byte-granularity writes clear the tags of every granule they touch,
// modelling the hardware rule that partial overwrites destroy capability
// validity.
package tmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ufork/internal/cap"
)

// PageSize is the frame/page size in bytes.
const PageSize = 4096

// GranulesPerPage is the number of capability granules in one frame.
const GranulesPerPage = PageSize / cap.GranuleSize

// TagWords is the number of uint64 bitset words holding one frame's tags.
const TagWords = GranulesPerPage / 64

// TagPlaneBytes is the size of one frame's packed tag plane: the extra
// bytes a frame copy moves beside its 4 KiB of data.
const TagPlaneBytes = GranulesPerPage / 8

// PFN is a physical frame number.
type PFN uint64

// NoFrame is the sentinel invalid PFN.
const NoFrame PFN = ^PFN(0)

// Errors reported by the memory subsystem.
var (
	ErrOutOfMemory  = errors.New("tmem: out of physical frames")
	ErrBadFrame     = errors.New("tmem: access to unallocated frame")
	ErrUnaligned    = errors.New("tmem: capability access not granule aligned")
	ErrFreeFree     = errors.New("tmem: double free of frame")
	ErrPageOverflow = errors.New("tmem: access crosses frame boundary")
)

// Frame is one 4 KiB physical frame with its tag plane.
//
// For tagged granules the authoritative capability value lives in caps;
// the data bytes hold the capability's cursor (so integer reads of a
// pointer see its address, as on real hardware) followed by a descriptive
// pattern. Clearing the tag leaves the bytes behind but revokes authority.
type Frame struct {
	Data [PageSize]byte
	// tags is the packed tag plane: bit g%64 of word g/64 is the validity
	// tag of granule g.
	tags [TagWords]uint64
	// ntags caches the population count of tags so capability-free frames
	// answer CountTags and ForEachTagged without touching the words.
	ntags int32
	// caps is allocated lazily on the first capability store: most frames
	// hold plain data and never pay for a capability plane. A pooled frame
	// keeps its caps array across reuse (stale entries are unobservable:
	// every read is gated on the tag bit).
	caps *[GranulesPerPage]cap.Capability
}

// tag reports granule g's validity bit.
func (f *Frame) tag(g uint64) bool { return f.tags[g/64]>>(g%64)&1 != 0 }

// setTag sets or clears granule g's validity bit, keeping ntags in step.
func (f *Frame) setTag(g uint64, v bool) {
	word, bit := g/64, uint64(1)<<(g%64)
	if v {
		if f.tags[word]&bit == 0 {
			f.tags[word] |= bit
			f.ntags++
		}
	} else if f.tags[word]&bit != 0 {
		f.tags[word] &^= bit
		f.ntags--
	}
}

// reset returns the frame to its freshly allocated state. The caps array
// is retained but inert: with every tag clear no stale capability is
// reachable.
func (f *Frame) reset() {
	f.Data = [PageSize]byte{}
	f.tags = [TagWords]uint64{}
	f.ntags = 0
}

// zeroFrame is the host storage of every zero-allocated frame until its
// first write. Most such frames are never written — each boot maps the
// whole static heap (Fig. 4) and touches little of it — so giving each one
// its own Frame was most of a boot's host time and resident memory. It is
// read-only: every write path goes through writable, which gives the
// frame real storage first.
var zeroFrame Frame

// SharedZeroIntact reports whether the shared zero frame still reads as
// all zeros with no tags: a write that bypassed writable would break every
// never-written frame at once. Test packages assert it at exit.
func SharedZeroIntact() bool {
	return zeroFrame.Data == [PageSize]byte{} && zeroFrame.tags == [TagWords]uint64{} &&
		zeroFrame.ntags == 0 && zeroFrame.caps == nil
}

// Memory is a bank of tagged physical frames with a free-list allocator.
// Freed Frames are pooled and reset on reuse rather than handed to the
// garbage collector: fork-heavy workloads recycle tens of thousands of
// frames per fork and the allocation churn dominated host wall-clock time.
// A zero-allocated frame shares zeroFrame until its first write.
type Memory struct {
	frames    []*Frame
	freeList  []PFN
	pool      []*Frame
	allocated int
	peak      int
	// totalOps counts byte-level read/write/copy volume. Atomic: frame
	// copies fan out across host goroutines on the fork hot path.
	totalOps atomic.Uint64
	// hooks holds the optional chaos-harness interception points; nil in
	// production so the hot paths pay a single pointer compare.
	hooks *Hooks
	// observer, when non-nil, is called after every successful frame
	// allocation and free (flight-recorder wiring). tmem has no clock or
	// process notion, so the kernel closure supplies both.
	observer func(alloc bool, pfn PFN)
	// copyObserver, when non-nil, is called after every CopyFrame
	// (provenance-plane lineage wiring). Unlike the alloc/free observer it
	// MUST be safe for concurrent use: fork eager copies fan out across
	// host worker goroutines.
	copyObserver func(dst, src PFN)
	// caches, when armed via EnableCPUCaches, holds the per-CPU free-frame
	// stacks of the fine-grained allocator's lock-free fast path; nil on
	// BKL/POSIX machines so their PFN ordering is untouched. See cache.go.
	caches *frameCaches
}

// New creates a memory bank with the given number of physical frames.
func New(nframes int) *Memory {
	m := &Memory{frames: make([]*Frame, nframes)}
	m.freeList = make([]PFN, 0, nframes)
	// Hand out low frames first for reproducibility.
	for i := nframes - 1; i >= 0; i-- {
		m.freeList = append(m.freeList, PFN(i))
	}
	return m
}

// NumFrames returns the total number of physical frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// Allocated returns the number of frames currently allocated.
func (m *Memory) Allocated() int { return m.allocated }

// PeakAllocated returns the high-water mark of allocated frames.
func (m *Memory) PeakAllocated() int { return m.peak }

// AllocFrame allocates a zeroed frame and returns its PFN. The frame
// shares the read-only zero frame until its first write.
func (m *Memory) AllocFrame() (PFN, error) { return m.alloc(true) }

// AllocFrameForCopy allocates a frame whose data bytes are UNSPECIFIED (a
// pooled frame keeps its previous contents); its tag plane is clear. The
// caller must fully overwrite it with CopyFrame before anything reads it.
// The fork eager-copy path uses this to skip zeroing 4 KiB per page that
// the copy is about to overwrite anyway. The frame has its own storage
// from the start, so parallel fork workers can copy into and relocate it
// without touching the pool.
func (m *Memory) AllocFrameForCopy() (PFN, error) { return m.alloc(false) }

func (m *Memory) alloc(zero bool) (PFN, error) {
	if m.hooks != nil && m.hooks.FailAlloc != nil && m.hooks.FailAlloc() {
		return NoFrame, fmt.Errorf("%w (injected)", ErrOutOfMemory)
	}
	pfn, cached := m.takeCached()
	if !cached {
		if len(m.freeList) == 0 && !m.stealCaches() {
			return NoFrame, ErrOutOfMemory
		}
		pfn = m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
	}
	if zero {
		m.frames[pfn] = &zeroFrame
	} else {
		m.frames[pfn] = m.backing(false)
	}
	m.allocated++
	if m.allocated > m.peak {
		m.peak = m.allocated
	}
	liveFrames.Add(1)
	if m.observer != nil {
		m.observer(true, pfn)
	}
	return pfn, nil
}

// backing returns frame storage with a clear tag plane: a pooled frame, or
// a new one. zero also clears a pooled frame's data. It touches the pool,
// so only the simulation goroutine may call it.
func (m *Memory) backing(zero bool) *Frame {
	n := len(m.pool)
	if n == 0 {
		return &Frame{}
	}
	f := m.pool[n-1]
	m.pool[n-1] = nil
	m.pool = m.pool[:n-1]
	if zero {
		f.reset()
	} else {
		f.tags = [TagWords]uint64{}
		f.ntags = 0
	}
	return f
}

// SetFrameObserver installs fn as the alloc/free observer; nil removes it.
// Allocation is confined to the simulation goroutine, so the observer need
// not be safe for concurrent use.
func (m *Memory) SetFrameObserver(fn func(alloc bool, pfn PFN)) { m.observer = fn }

// SetCopyObserver installs fn as the frame-copy observer; nil removes it.
// Install before the simulation runs: CopyFrame is invoked from parallel
// fork workers, so fn must be safe for concurrent use and the installation
// itself is not synchronized.
func (m *Memory) SetCopyObserver(fn func(dst, src PFN)) { m.copyObserver = fn }

// FreeFrame returns a frame to the allocator. Freeing a frame that is not
// currently allocated reports ErrFreeFree; the frame's storage, if it has
// its own, is retained in the pool for reuse.
func (m *Memory) FreeFrame(pfn PFN) error {
	if pfn == NoFrame || int(pfn) >= len(m.frames) {
		return fmt.Errorf("%w: pfn %d", ErrBadFrame, pfn)
	}
	f := m.frames[pfn]
	if f == nil {
		return fmt.Errorf("%w: pfn %d", ErrFreeFree, pfn)
	}
	if f != &zeroFrame {
		if m.hooks != nil && m.hooks.PoisonFreed {
			poisonFrame(f)
		}
		m.pool = append(m.pool, f)
	}
	m.frames[pfn] = nil
	if !m.cacheFree(pfn) {
		m.freeList = append(m.freeList, pfn)
	}
	m.allocated--
	liveFrames.Add(-1)
	if m.observer != nil {
		m.observer(false, pfn)
	}
	return nil
}

func (m *Memory) frame(pfn PFN) (*Frame, error) {
	if pfn == NoFrame || int(pfn) >= len(m.frames) || m.frames[pfn] == nil {
		return nil, fmt.Errorf("%w: pfn %d", ErrBadFrame, pfn)
	}
	return m.frames[pfn], nil
}

// writable returns frame pfn for a write, first giving a frame that still
// shares zeroFrame zeroed storage of its own. That swap touches the pool,
// so writes to zero-allocated frames stay on the simulation goroutine;
// parallel fork workers only write AllocFrameForCopy frames.
func (m *Memory) writable(pfn PFN) (*Frame, error) {
	f, err := m.frame(pfn)
	if err != nil || f != &zeroFrame {
		return f, err
	}
	f = m.backing(true)
	m.frames[pfn] = f
	return f, nil
}

// checkRange validates that [off, off+n) lies within one frame.
func checkRange(off, n uint64) error {
	if off+n > PageSize || off+n < off {
		return fmt.Errorf("%w: off=%d n=%d", ErrPageOverflow, off, n)
	}
	return nil
}

// ReadBytes copies n bytes at offset off of frame pfn into buf.
func (m *Memory) ReadBytes(pfn PFN, off uint64, buf []byte) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if err := checkRange(off, uint64(len(buf))); err != nil {
		return err
	}
	copy(buf, f.Data[off:])
	m.totalOps.Add(uint64(len(buf)))
	return nil
}

// WriteBytes stores buf at offset off of frame pfn, clearing the tags of
// every granule the write touches.
func (m *Memory) WriteBytes(pfn PFN, off uint64, buf []byte) error {
	f, err := m.writable(pfn)
	if err != nil {
		return err
	}
	if err := checkRange(off, uint64(len(buf))); err != nil {
		return err
	}
	copy(f.Data[off:], buf)
	if f.ntags > 0 {
		first := off / cap.GranuleSize
		last := (off + uint64(len(buf)) - 1) / cap.GranuleSize
		// Clear whole words at a time; the popcount of the cleared bits
		// keeps the cached tag count exact.
		for w := first / 64; w <= last/64; w++ {
			mask := ^uint64(0)
			if w == first/64 {
				mask &= ^uint64(0) << (first % 64)
			}
			if w == last/64 && last%64 != 63 {
				mask &= (uint64(1) << (last%64 + 1)) - 1
			}
			if cleared := f.tags[w] & mask; cleared != 0 {
				f.tags[w] &^= mask
				f.ntags -= int32(bits.OnesCount64(cleared))
			}
		}
	}
	m.totalOps.Add(uint64(len(buf)))
	return nil
}

// LoadCap loads the capability at granule-aligned offset off of frame pfn.
// If the granule's tag is clear the returned capability is untagged (its
// byte pattern reinterpreted as an invalid capability), exactly as on
// hardware.
func (m *Memory) LoadCap(pfn PFN, off uint64) (cap.Capability, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return cap.Null(), err
	}
	if off%cap.GranuleSize != 0 {
		return cap.Null(), ErrUnaligned
	}
	if err := checkRange(off, cap.GranuleSize); err != nil {
		return cap.Null(), err
	}
	g := off / cap.GranuleSize
	if !f.tag(g) || f.caps == nil {
		// Untagged load: reconstruct an invalid capability whose cursor is
		// whatever integer the bytes hold.
		addr := binary.LittleEndian.Uint64(f.Data[off:])
		return cap.Null().SetAddr(addr).Untag(), nil
	}
	return f.caps[g], nil
}

// StoreCap stores capability c at granule-aligned offset off of frame pfn.
// Tagged capabilities set the granule tag; untagged ones clear it. The
// data bytes receive the capability's cursor so that subsequent integer
// loads observe the pointer's address.
func (m *Memory) StoreCap(pfn PFN, off uint64, c cap.Capability) error {
	f, err := m.writable(pfn)
	if err != nil {
		return err
	}
	if off%cap.GranuleSize != 0 {
		return ErrUnaligned
	}
	if err := checkRange(off, cap.GranuleSize); err != nil {
		return err
	}
	g := off / cap.GranuleSize
	binary.LittleEndian.PutUint64(f.Data[off:], c.Addr())
	binary.LittleEndian.PutUint64(f.Data[off+8:], c.Base())
	f.setTag(g, c.Tag())
	if c.Tag() {
		if f.caps == nil {
			f.caps = new([GranulesPerPage]cap.Capability)
		}
		f.caps[g] = c
	} else if f.caps != nil {
		f.caps[g] = cap.Null()
	}
	return nil
}

// TagAt reports the validity tag of the granule at offset off.
func (m *Memory) TagAt(pfn PFN, off uint64) (bool, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return false, err
	}
	if off%cap.GranuleSize != 0 {
		return false, ErrUnaligned
	}
	return f.tag(off / cap.GranuleSize), nil
}

// ForEachTagged calls fn with the byte offset of every tagged granule in
// frame pfn, in ascending order: the 16-byte-stride tag scan at the heart
// of μFork's relocation pass, allocation-free. A frame whose cached tag
// count is zero returns without touching the tag words. fn may rewrite the
// granule it is visiting (the word is snapshotted before its bits are
// walked); a non-nil error from fn aborts the scan.
func (m *Memory) ForEachTagged(pfn PFN, fn func(off uint64) error) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if f.ntags == 0 {
		return nil
	}
	for wi := range f.tags {
		w := f.tags[wi]
		for w != 0 {
			g := uint64(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if err := fn(g * cap.GranuleSize); err != nil {
				return err
			}
		}
	}
	return nil
}

// CountTags returns the number of tagged granules in frame pfn, from the
// per-frame cached population count.
func (m *Memory) CountTags(pfn PFN) (int, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return 0, err
	}
	return int(f.ntags), nil
}

// CopyFrame copies the full contents of frame src — data bytes AND the tag
// plane with its capabilities — into frame dst. This is the page-copy
// primitive used by every copy-on-* strategy; the tag plane travels with
// the data exactly as on Morello. The moved volume (data + packed tag
// plane) is charged to the byte-accounting counter. A copy from a
// never-written frame into a never-written one leaves both sharing the
// zero frame; any other copy into a never-written frame gives it storage,
// which only the simulation goroutine may do.
func (m *Memory) CopyFrame(dst, src PFN) error {
	fs, err := m.frame(src)
	if err != nil {
		return err
	}
	fd, err := m.frame(dst)
	if err != nil {
		return err
	}
	if fd == &zeroFrame && fs != &zeroFrame {
		fd = m.backing(false) // every field is overwritten below
		m.frames[dst] = fd
	}
	if fd != &zeroFrame {
		copyInto(fd, fs)
		if m.hooks != nil && m.hooks.SkipTagCopy {
			fd.tags = [TagWords]uint64{}
		}
	}
	m.totalOps.Add(PageSize + TagPlaneBytes)
	if m.copyObserver != nil {
		m.copyObserver(dst, src)
	}
	return nil
}

// copyInto copies fs's data bytes, tag plane and capabilities into fd.
func copyInto(fd, fs *Frame) {
	fd.Data = fs.Data
	fd.tags = fs.tags
	fd.ntags = fs.ntags
	if fs.caps != nil && fs.ntags > 0 {
		if fd.caps == nil {
			fd.caps = new([GranulesPerPage]cap.Capability)
		}
		if int(fs.ntags) >= GranulesPerPage/4 {
			*fd.caps = *fs.caps
		} else {
			// Sparse page: copy only the tagged entries. Stale dst entries
			// at untagged granules are unobservable — every capability read
			// is gated on the (just copied) tag bit.
			for wi := range fs.tags {
				w := fs.tags[wi]
				for w != 0 {
					g := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					fd.caps[g] = fs.caps[g]
				}
			}
		}
	}
	// A stale fd.caps from a pooled frame is likewise unobservable when fs
	// carried no tags: fd's tag plane is now all-clear.
}

// ZeroFrame clears a frame's data, tags, and cached tag count.
func (m *Memory) ZeroFrame(pfn PFN) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if f != &zeroFrame {
		f.reset()
	}
	return nil
}

// RewriteCap replaces the capability at offset off with c without touching
// neighbouring granules. It is the in-place relocation primitive.
func (m *Memory) RewriteCap(pfn PFN, off uint64, c cap.Capability) error {
	return m.StoreCap(pfn, off, c)
}

// BytesMoved returns the cumulative byte read/write/copy volume, used by
// cost accounting.
func (m *Memory) BytesMoved() uint64 { return m.totalOps.Load() }
