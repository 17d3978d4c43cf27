// Package posix implements the monolithic-kernel baseline: classic POSIX
// fork in a multi-address-space OS, modelled on CheriBSD 23.11 as used in
// the paper's evaluation (§5).
//
// fork creates a new address space whose page-table entries alias the
// parent's frames copy-on-write; because the child occupies the same
// virtual addresses, no relocation is ever needed — the cost shows up
// elsewhere: per-process page tables, trap-based system calls, TLB/cache
// flushes on context switches, and a fixed vmspace-creation charge.
package posix

import (
	"fmt"

	"ufork/internal/kernel"
	"ufork/internal/vm"
)

// Engine is the CheriBSD-like fork engine.
type Engine struct{}

// New returns the baseline engine.
func New() *Engine { return &Engine{} }

// Name implements kernel.ForkEngine.
func (e *Engine) Name() string { return "posix-cow" }

// Fork implements kernel.ForkEngine: classic CoW fork.
func (e *Engine) Fork(k *kernel.Kernel, parent, child *kernel.Proc) (kernel.ForkStats, error) {
	var stats kernel.ForkStats
	m := k.Machine

	// The kernel gave the child a brand-new address space: pmap + vm_map
	// creation dominates the fixed cost of a small fork (Fig. 8).
	child.Region = parent.Region // same virtual addresses
	stats.ReserveTime = m.VMSpaceSetup

	startVPN := vm.VPNOf(parent.Region.Base)
	endVPN := vm.VPNOf(parent.Region.Top()-1) + 1
	var copyErr error
	parent.AS.RangeVPNs(startVPN, endVPN, func(vpn vm.VPN, pte *vm.PTE) {
		if copyErr != nil {
			return
		}
		stats.PTEsCopied++
		stats.PTECopyTime += m.PTECopy
		// Both sides lose write permission; the first writer copies.
		pte.Prot &^= vm.ProtWrite
		if err := child.AS.Map(vpn, pte.Page, pte.Prot); err != nil {
			copyErr = err
			return
		}
	})
	if copyErr != nil {
		return stats, copyErr
	}

	// Registers and ambient capabilities transfer unchanged: the child's
	// address space is an exact alias of the parent's.
	child.Regs = parent.Regs
	child.DDC = parent.DDC
	child.PCC = parent.PCC
	child.StackCap = parent.StackCap
	child.HeapCap = parent.HeapCap
	child.GOTCap = parent.GOTCap
	child.MetaCap = parent.MetaCap
	child.DataCap = parent.DataCap
	child.TLSCap = parent.TLSCap
	child.SyscallCap = parent.SyscallCap
	return stats, nil
}

// HandleFault implements kernel.ForkEngine: demand heap paging plus plain
// copy-on-write.
func (e *Engine) HandleFault(k *kernel.Kernel, p *kernel.Proc, f *vm.Fault, acc vm.Access) error {
	if !p.Region.Contains(f.VA) {
		return fmt.Errorf("posix: access outside process image: %v", f)
	}
	off := f.VA - p.Region.Base
	seg, ok := p.Layout.SegmentOf(off)
	if !ok {
		return fmt.Errorf("posix: fault outside image: %v", f)
	}
	if f.Kind == vm.FaultNotMapped {
		if seg != kernel.SegHeap || !k.Machine.DemandPagedHeap {
			return fmt.Errorf("posix: unresolvable fault: %v", f)
		}
		// First touch of a demand-paged heap page: map a fresh zero frame.
		if _, err := p.AS.MapNew(vm.VPNOf(f.VA), seg.NaturalProt()); err != nil {
			return err
		}
		return nil
	}
	if f.Kind != vm.FaultWriteProtect {
		return fmt.Errorf("posix: unresolvable fault: %v", f)
	}
	natural := seg.NaturalProt()
	if natural&vm.ProtWrite == 0 {
		return fmt.Errorf("posix: write to read-only %v segment: %v", seg, f)
	}
	_, copied, err := p.AS.MakePrivate(vm.VPNOf(f.VA), natural)
	if err != nil {
		return err
	}
	if copied {
		p.Task.Advance(k.Machine.PageCopy)
	}
	return nil
}

// ChildStart implements kernel.ForkEngine. Plain fork does not re-run the
// dynamic linker, so the monolithic child needs no eager fixups; the
// per-process memory the paper attributes to the runtime image and the
// allocator arena (Fig. 5, Fig. 8) is the proportional-set attribution of
// the CoW-shared pages, which the kernel's smaps walk reproduces without
// touching anything.
func (e *Engine) ChildStart(k *kernel.Kernel, child *kernel.Proc) {}
