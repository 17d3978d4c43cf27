package kernel_test

// Frame-leak regression guard: tmem keeps a process-wide live-frame
// counter (allocations minus frees, across every Memory instance the
// package's tests create). Every kernel test lets its simulation run to
// completion and every μprocess exit, so by the end of the package run
// the counter must balance to exactly zero — any residue is a leaked
// frame on some path (an aborted fork, an error-path unwind, a terminate
// that skipped a page).

import (
	"fmt"
	"os"
	"testing"

	"ufork/internal/tmem"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if n := tmem.LiveFrames(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "FRAME LEAK: %d frames still allocated after all kernel tests\n", n)
		code = 1
	}
	// Every never-written frame reads through one shared zero frame; a
	// write that reached it would corrupt all of them at once.
	if !tmem.SharedZeroIntact() {
		fmt.Fprintln(os.Stderr, "SHARED ZERO FRAME WRITTEN: it no longer reads as zeros with no tags")
		code = 1
	}
	os.Exit(code)
}
