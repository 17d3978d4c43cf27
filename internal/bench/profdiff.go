package bench

import (
	"ufork/internal/bench/ycsb"
	"ufork/internal/obs/profile"
)

// The profdiff experiment answers "where does the virtual CPU time move
// when the big kernel lock is split?" by profiling the identical seeded
// YCSB workload under both lock regimes and subtracting the two
// stack-attributed profiles. The top signed deltas name the winners
// (lock:bkl wait stacks that vanish) and the costs (smp residual-lock
// waits, extra dispatch latency) — the flame-graph version of the
// contention sweep's summary table.

// ProfDiffTop bounds the rendered delta table.
const ProfDiffTop = 10

// profDiffSweep profiles the restricted sweep one side of the diff
// covers: one mix, the most parallel core count, one lock regime.
// Keeping the coordinate small makes the experiment a quick-mode
// citizen; both sides are fully seeded, so each profile — and the
// rendered diff — is byte-deterministic run to run.
func profDiffSweep(locks string, keys, ops int) (*profile.Plane, error) {
	pl := profile.New(0)
	pl.Enable()
	rows, err := YCSBSweep(YCSBOpts{
		Mixes:   []ycsb.Mix{ycsb.MixA},
		Keys:    keys,
		Ops:     ops,
		Cores:   []int{4},
		Locks:   []string{locks},
		Profile: pl,
	})
	if err != nil {
		return nil, err
	}
	return pl, YCSBFailures(rows)
}

// renderProfDiff renders the top signed per-stack deltas from the bkl
// profile to the smp one.
func renderProfDiff(bkl, smp *profile.Plane) string {
	return profile.RenderDiff(profile.Diff(bkl.Snapshot(), smp.Snapshot()), ProfDiffTop,
		"locks="+LocksBKL, "locks="+LocksSMP)
}

// ProfDiff runs the cross-lock-regime profile diff and renders the top
// signed per-stack deltas (negative = virtual time the split-lock
// kernel no longer spends there).
func ProfDiff(keys, ops int) (string, error) {
	bkl, err := profDiffSweep(LocksBKL, keys, ops)
	if err != nil {
		return "", err
	}
	smp, err := profDiffSweep(LocksSMP, keys, ops)
	if err != nil {
		return "", err
	}
	return renderProfDiff(bkl, smp), nil
}
