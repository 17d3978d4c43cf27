package bench

// Frame-leak regression guard for the experiment harness: every
// benchmark scenario boots kernels, forks whole process trees, and runs
// them to completion — after the package's tests finish, tmem's
// process-wide live-frame counter must balance to zero or some workload
// leaked physical memory (see the matching guard in internal/kernel).

import (
	"fmt"
	"os"
	"testing"

	"ufork/internal/tmem"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if n := tmem.LiveFrames(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "FRAME LEAK: %d frames still allocated after all bench tests\n", n)
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
