package bench

import (
	"sync"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/profile"
)

// armProfileEverywhere chains kernel.TrackNew so every kernel the bench
// layer boots arms pl, restoring the previous hook at test end. This is
// the same wiring path the telemetry server and the -profile bench flag
// use, so the invariance tests exercise the real arming route.
func armProfileEverywhere(t *testing.T, pl *profile.Plane) {
	t.Helper()
	old := kernel.TrackNew
	kernel.TrackNew = func(k *kernel.Kernel) {
		if old != nil {
			old(k)
		}
		k.ArmProfile(pl)
	}
	t.Cleanup(func() { kernel.TrackNew = old })
}

// TestGoldenForkHistProfilerArmed is the observer-effect gate: the
// virtual-time goldens must stay byte-identical with the profiler armed
// on every kernel boot, while the plane itself fills with samples that
// pass the exact-sum audit. A profiler that nudged the timeline — an
// extra Advance, a reordered lock wait — fails the byte comparison.
func TestGoldenForkHistProfilerArmed(t *testing.T) {
	pl := profile.New(0)
	pl.Enable()
	armProfileEverywhere(t, pl)
	rows, err := ForkHist(ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	if pl.Samples() == 0 {
		t.Fatal("armed sweep produced no samples")
	}
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenContentionProfilerArmed pins the contention-sweep golden —
// the one whose cells exercise both lock regimes, so the profiler's
// lock-wait sampling runs hot on the exact workload the golden freezes.
func TestGoldenContentionProfilerArmed(t *testing.T) {
	pl := profile.New(0)
	pl.Enable()
	armProfileEverywhere(t, pl)
	rows, err := ContentionSweep(ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderContention(rows), "golden_contention.txt")
	if pl.Samples() == 0 {
		t.Fatal("armed contention sweep produced no samples")
	}
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

// bklProfile is the quick-mode BKL profiled sweep, run once and shared
// by the profdiff golden and the fold-determinism check.
var bklProfile = sync.OnceValues(func() (*profile.Plane, error) {
	return profDiffSweep(LocksBKL, YCSBKeysQuick, YCSBOpsQuick)
})

// TestGoldenProfDiff pins the cross-lock-regime profile diff: the
// quick-mode YCSB coordinate profiled under bkl and smp must subtract
// to the identical signed delta table every run.
func TestGoldenProfDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("profdiff sweep is quick-mode, not short-mode")
	}
	bkl, err := bklProfile()
	if err != nil {
		t.Fatal(err)
	}
	smp, err := profDiffSweep(LocksSMP, YCSBKeysQuick, YCSBOpsQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, renderProfDiff(bkl, smp), "golden_profdiff.txt")
}

// TestProfDiffFoldedDeterministic is the byte-determinism acceptance:
// two independent seeded profiled sweeps — the shared one and a fresh
// one — fold to identical bytes.
func TestProfDiffFoldedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled sweep is quick-mode, not short-mode")
	}
	shared, err := bklProfile()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := profDiffSweep(LocksBKL, YCSBKeysQuick, YCSBOpsQuick)
	if err != nil {
		t.Fatal(err)
	}
	a, b := shared.Folded(), fresh.Folded()
	if a != b {
		t.Fatalf("identical seeded runs folded differently:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if a == "" {
		t.Fatal("profiled sweep folded to nothing")
	}
}
