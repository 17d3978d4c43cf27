// Package alloc is a tinyalloc-style heap allocator that lives *inside*
// simulated μprocess memory.
//
// All allocator state — block descriptors, free/used lists, the arena
// watermark — resides in the μprocess's allocator-metadata segment, and
// every block pointer is stored as a CHERI capability. This is the fidelity
// point the paper's fork depends on: because the descriptors hold tagged
// capabilities, μFork's proactive copy of the metadata pages relocates them
// (§3.5 step 1), so the child's allocator immediately operates on the
// child's own heap.
//
// Per §4.1, allocations are 16-byte aligned and every returned capability
// is bounded to its block.
package alloc

import (
	"errors"
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/kernel"
	"ufork/internal/obs"
)

const (
	// headerSize is the metadata header: numBlocks, freshTop, freeHead,
	// usedHead (4 × u64, padded to a granule boundary).
	headerSize = 64
	// blockSize is one block descriptor: capability (16 B), size (8 B),
	// next link (8 B).
	blockSize = 32

	offNumBlocks = 0
	offFreshTop  = 8
	offFreeHead  = 16
	offUsedHead  = 24
)

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("alloc: arena exhausted")
	ErrNoBlocks    = errors.New("alloc: block descriptor table full")
	ErrBadFree     = errors.New("alloc: free of unknown block")
)

// Allocator manages one μprocess heap. All allocator state lives in
// simulated memory, which is what makes it fork-transparent; the only
// host-side state is the used-list index, a cache that never decides an
// outcome on its own.
type Allocator struct {
	p  *kernel.Proc
	ix *usedIndex
}

// Attach binds an allocator view to a process. Call Init once on a freshly
// loaded image; a forked child attaches to already-initialised (and
// already-relocated) metadata. Every view of one process shares the
// process's used-list index.
func Attach(p *kernel.Proc) *Allocator {
	ix, ok := p.AllocCache.(*usedIndex)
	if !ok {
		ix = &usedIndex{byAddr: map[uint64]uint64{}}
		p.AllocCache = ix
	}
	return &Allocator{p: p, ix: ix}
}

// usedIndex is a host-side cache over the used list: block address →
// descriptor id, and descriptor id → its predecessor's id on the used list
// (0 for the head). It turns Free's list walk into a constant number of
// loads. Simulated memory stays authoritative: Free checks each hit
// against the descriptors before acting on it, and a miss or mismatch
// falls back to walking the list, which rebuilds the index. A forked
// child therefore starts empty and builds its index on its first Free.
//
// The index is per μprocess, not per Attach view: with one index per view,
// view B freeing a block X and then X's predecessor P leaves P.next == X
// on the free list, and a double free of X through view A would pass A's
// stale check.
type usedIndex struct {
	byAddr map[uint64]uint64
	prev   []uint64 // prev[id], for 1-based descriptor ids
}

func (ix *usedIndex) reset() {
	clear(ix.byAddr)
	ix.prev = ix.prev[:0]
}

func (ix *usedIndex) setPrev(id, prev uint64) {
	for uint64(len(ix.prev)) <= id {
		ix.prev = append(ix.prev, 0)
	}
	ix.prev[id] = prev
}

// record notes that block id at addr is on the used list after prev.
func (ix *usedIndex) record(addr, id, prev uint64) {
	ix.byAddr[addr] = id
	ix.setPrev(id, prev)
}

// push notes that block id at addr became the used-list head in front of
// the old head.
func (ix *usedIndex) push(addr, id, head uint64) {
	ix.record(addr, id, 0)
	if head != 0 {
		ix.setPrev(head, id)
	}
}

// unlink notes that the block at addr, between prev and next, left the
// used list.
func (ix *usedIndex) unlink(addr, prev, next uint64) {
	delete(ix.byAddr, addr)
	if next != 0 {
		ix.setPrev(next, prev)
	}
}

// maxBlocks returns the descriptor table capacity.
func (a *Allocator) maxBlocks() uint64 {
	return (a.p.MetaCap.Len() - headerSize) / blockSize
}

// Init formats the metadata segment for an empty heap.
func (a *Allocator) Init() error {
	a.ix.reset()
	for _, off := range []uint64{offNumBlocks, offFreshTop, offFreeHead, offUsedHead} {
		if err := a.p.StoreU64(a.p.MetaCap, off, 0); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocator) blockOff(i uint64) uint64 { return headerSize + i*blockSize }

func (a *Allocator) loadBlock(i uint64) (c cap.Capability, size, next uint64, err error) {
	off := a.blockOff(i)
	if c, err = a.p.LoadCap(a.p.MetaCap, off); err != nil {
		return
	}
	if size, err = a.p.LoadU64(a.p.MetaCap, off+16); err != nil {
		return
	}
	next, err = a.loadNext(i)
	return
}

func (a *Allocator) loadNext(i uint64) (uint64, error) {
	return a.p.LoadU64(a.p.MetaCap, a.blockOff(i)+24)
}

func (a *Allocator) storeBlock(i uint64, c cap.Capability, size, next uint64) error {
	off := a.blockOff(i)
	if err := a.p.StoreCap(a.p.MetaCap, off, c); err != nil {
		return err
	}
	if err := a.p.StoreU64(a.p.MetaCap, off+16, size); err != nil {
		return err
	}
	return a.p.StoreU64(a.p.MetaCap, off+24, next)
}

// Alloc returns a bounded, 16-byte-aligned capability over n bytes of
// heap. The capability's bounds are exactly the block (CHERI allocator
// discipline, §4.1); sizes are rounded and bases aligned so the compressed
// bounds encoding represents them exactly — the adjustment the paper's
// tinyalloc port had to make.
func (a *Allocator) Alloc(n uint64) (cap.Capability, error) {
	c, err := a.alloc(n)
	if err != nil {
		// A failed load or store can leave the lists half-updated.
		a.ix.reset()
	}
	return c, err
}

func (a *Allocator) alloc(n uint64) (cap.Capability, error) {
	if n == 0 {
		n = 1
	}
	n = (n + cap.GranuleSize - 1) &^ uint64(cap.GranuleSize-1)
	n = cap.RepresentableLength(n)
	align := cap.RepresentableAlign(n)
	if align < cap.GranuleSize {
		align = cap.GranuleSize
	}

	// First fit on the free list.
	prev := uint64(0)
	head, err := a.p.LoadU64(a.p.MetaCap, offFreeHead)
	if err != nil {
		return cap.Null(), err
	}
	for cur := head; cur != 0; {
		c, size, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return cap.Null(), err
		}
		if size >= n && c.Addr()%align == 0 {
			// Unlink from free list, push onto used list.
			if prev == 0 {
				if err := a.p.StoreU64(a.p.MetaCap, offFreeHead, next); err != nil {
					return cap.Null(), err
				}
			} else {
				pc, psize, _, err := a.loadBlock(prev - 1)
				if err != nil {
					return cap.Null(), err
				}
				if err := a.storeBlock(prev-1, pc, psize, next); err != nil {
					return cap.Null(), err
				}
			}
			usedHead, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
			if err != nil {
				return cap.Null(), err
			}
			if err := a.storeBlock(cur-1, c, size, usedHead); err != nil {
				return cap.Null(), err
			}
			if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, cur); err != nil {
				return cap.Null(), err
			}
			a.ix.push(c.Addr(), cur, usedHead)
			a.churn("alloc.reuse", size)
			return c, nil
		}
		prev, cur = cur, next
	}

	// Carve a fresh block from the arena top, aligned for representability.
	freshTop, err := a.p.LoadU64(a.p.MetaCap, offFreshTop)
	if err != nil {
		return cap.Null(), err
	}
	if rem := (a.p.HeapCap.Base() + freshTop) % align; rem != 0 {
		freshTop += align - rem
	}
	if freshTop+n > a.p.HeapCap.Len() {
		return cap.Null(), fmt.Errorf("%w: %d + %d > %d", ErrOutOfMemory, freshTop, n, a.p.HeapCap.Len())
	}
	numBlocks, err := a.p.LoadU64(a.p.MetaCap, offNumBlocks)
	if err != nil {
		return cap.Null(), err
	}
	if numBlocks >= a.maxBlocks() {
		return cap.Null(), ErrNoBlocks
	}
	c, err := a.p.HeapCap.SetAddr(a.p.HeapCap.Base() + freshTop).SetBounds(n)
	if err != nil {
		return cap.Null(), err
	}
	// Advance the brk watermark page by page (the kernel tracks heap use
	// for the demand-paging baseline's accounting).
	oldPages := int((freshTop + kernel.PageSize - 1) / kernel.PageSize)
	newPages := int((freshTop + n + kernel.PageSize - 1) / kernel.PageSize)
	if newPages > oldPages {
		if err := a.p.Kernel().Sbrk(a.p, newPages-oldPages); err != nil {
			return cap.Null(), err
		}
	}
	if err := a.p.StoreU64(a.p.MetaCap, offFreshTop, freshTop+n); err != nil {
		return cap.Null(), err
	}
	usedHead, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return cap.Null(), err
	}
	if err := a.storeBlock(numBlocks, c, n, usedHead); err != nil {
		return cap.Null(), err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, numBlocks+1); err != nil {
		return cap.Null(), err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offNumBlocks, numBlocks+1); err != nil {
		return cap.Null(), err
	}
	a.ix.push(c.Addr(), numBlocks+1, usedHead)
	a.churn("alloc.fresh", n)
	return c, nil
}

// churn records allocator activity (op count + bytes) in the owning
// kernel's metrics registry when observability is on.
func (a *Allocator) churn(op string, bytes uint64) {
	if !obs.On() {
		return
	}
	reg := a.p.Kernel().Obs.Reg
	reg.Counter(op).Inc()
	reg.Counter(op + ".bytes").Add(bytes)
}

// Free returns a block to the free list. The block is identified by the
// capability's address.
func (a *Allocator) Free(c cap.Capability) error {
	err := a.free(c)
	if err != nil && !errors.Is(err, ErrBadFree) {
		// A failed load or store can leave the lists half-updated.
		a.ix.reset()
	}
	return err
}

func (a *Allocator) free(c cap.Capability) error {
	cur, prev, bc, size, next, err := a.findUsed(c.Addr())
	if err != nil {
		return err
	}
	if cur == 0 {
		return fmt.Errorf("%w: %v", ErrBadFree, c)
	}
	// Unlink from used list.
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
	if err := a.p.StoreU64(a.p.MetaCap, offFreeHead, cur); err != nil {
		return err
	}
	a.ix.unlink(bc.Addr(), prev, next)
	return nil
}

// findUsed locates the used-list block at addr: its descriptor id cur
// (0 when no used block has that address), its predecessor prev (0 when
// it is the head), and its descriptor fields. An index hit is used only
// after simulated memory confirms it — the descriptor holds addr and the
// predecessor's link (or usedHead) names the block. Otherwise the whole
// used list is walked from the head and the index rebuilt from it.
func (a *Allocator) findUsed(addr uint64) (cur, prev uint64, bc cap.Capability, size, next uint64, err error) {
	head, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return 0, 0, bc, 0, 0, err
	}
	if id, ok := a.ix.byAddr[addr]; ok {
		p, link := a.ix.prev[id], head
		if p != 0 {
			if link, err = a.loadNext(p - 1); err != nil {
				return 0, 0, bc, 0, 0, err
			}
		}
		if link == id {
			if bc, size, next, err = a.loadBlock(id - 1); err != nil {
				return 0, 0, bc, 0, 0, err
			}
			if bc.Addr() == addr {
				return id, p, bc, size, next, nil
			}
		}
	}
	a.ix.reset()
	for id, p := head, uint64(0); id != 0; {
		c, s, nx, err := a.loadBlock(id - 1)
		if err != nil {
			return 0, 0, bc, 0, 0, err
		}
		a.ix.record(c.Addr(), id, p)
		if c.Addr() == addr && cur == 0 {
			cur, prev, bc, size, next = id, p, c, s, nx
		}
		p, id = id, nx
	}
	return cur, prev, bc, size, next, nil
}

// UsedBlocks walks the used list, returning each live block capability.
func (a *Allocator) UsedBlocks() ([]cap.Capability, error) {
	var out []cap.Capability
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return nil, err
	}
	for cur != 0 {
		c, _, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		cur = next
	}
	return out, nil
}

// ArenaUsed returns the high-water mark of arena consumption in bytes.
func (a *Allocator) ArenaUsed() (uint64, error) {
	return a.p.LoadU64(a.p.MetaCap, offFreshTop)
}
