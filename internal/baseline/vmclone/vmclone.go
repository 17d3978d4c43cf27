// Package vmclone implements the Nephele-like baseline: fork by cloning
// the entire unikernel VM through the hypervisor (§2.3 "the OS as a
// process").
//
// The clone pays a fixed hypervisor domain-creation cost and physically
// copies the whole VM image — OS pages included — so both fork latency and
// per-process memory are orders of magnitude above μFork's (Fig. 8:
// 10.7 ms and 1.6 MB per hello-world process).
package vmclone

import (
	"fmt"

	"ufork/internal/kernel"
	"ufork/internal/vm"
)

// Engine is the VM-cloning fork engine.
type Engine struct{}

// New returns the baseline engine.
func New() *Engine { return &Engine{} }

// Name implements kernel.ForkEngine.
func (e *Engine) Name() string { return "vm-clone" }

// Fork implements kernel.ForkEngine: duplicate the whole VM.
func (e *Engine) Fork(k *kernel.Kernel, parent, child *kernel.Proc) (kernel.ForkStats, error) {
	var stats kernel.ForkStats
	m := k.Machine

	child.Region = parent.Region // the clone sees identical guest-virtual addresses
	stats.ReserveTime = m.DomainCreate

	startVPN := vm.VPNOf(parent.Region.Base)
	endVPN := vm.VPNOf(parent.Region.Top()-1) + 1
	var copyErr error
	parent.AS.RangeVPNs(startVPN, endVPN, func(vpn vm.VPN, pte *vm.PTE) {
		if copyErr != nil {
			return
		}
		stats.PTEsCopied++
		stats.PTECopyTime += m.PTECopy
		pfn, err := k.Mem.AllocFrame()
		if err != nil {
			copyErr = err
			return
		}
		if err := k.Mem.CopyFrame(pfn, pte.Page.PFN); err != nil {
			_ = k.Mem.FreeFrame(pfn)
			copyErr = err
			return
		}
		off := uint64(vpn)*vm.PageSize - parent.Region.Base
		seg, ok := parent.Layout.SegmentOf(off)
		if !ok {
			_ = k.Mem.FreeFrame(pfn)
			copyErr = fmt.Errorf("vmclone: page %#x outside image", uint64(vpn)*vm.PageSize)
			return
		}
		if err := child.AS.Map(vpn, &vm.Page{PFN: pfn}, seg.NaturalProt()); err != nil {
			// Allocated but never mapped: free here or the abort path's
			// page-table walk will never find it.
			_ = k.Mem.FreeFrame(pfn)
			copyErr = err
			return
		}
		stats.PagesCopied++
		stats.EagerCopyTime += m.PageCopy
	})
	if copyErr != nil {
		return stats, copyErr
	}

	// Guest-virtual layout is identical, so register state transfers
	// unchanged (the hypervisor copies vCPU state wholesale).
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

// HandleFault implements kernel.ForkEngine. Nothing is shared after a full
// clone, so any fault is a genuine violation.
func (e *Engine) HandleFault(k *kernel.Kernel, p *kernel.Proc, f *vm.Fault, acc vm.Access) error {
	return fmt.Errorf("vmclone: unresolvable fault: %v", f)
}

// ChildStart implements kernel.ForkEngine; clones need no fixups.
func (e *Engine) ChildStart(k *kernel.Kernel, child *kernel.Proc) {}
