package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// The resume determinism suite extends the golden contract to
// checkpoint/restore: a golden experiment interrupted mid-run —
// snapshotted, torn down, rebuilt from configuration, and restored — must
// still produce the committed goldens byte for byte. core.SetResumeAt
// drives the interruption: every Run and RunCampaign inside the
// experiment executes to the given fraction of its horizon, checkpoints,
// rebuilds a fresh network, restores, and continues there. (Runs whose
// configuration cannot be checkpointed — e.g. E20's physical-wire
// scenario — fall back to running straight through, which must also
// reproduce the golden.)

// resumeAt arranges for fn to run with the in-memory resume point set,
// restoring the straight-through default afterwards.
func resumeAt(t *testing.T, frac float64, fn func()) {
	t.Helper()
	core.SetResumeAt(frac)
	defer core.SetResumeAt(0)
	fn()
}

// TestResumedGoldenExperiments interrupts the pinned golden experiments
// at 25/50/75% of every run's horizon. Every case runs the sequential
// cycle loop, so each case name ends in shards1.
func TestResumedGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("resumed golden experiments are not -short")
	}
	for _, id := range []string{"E1", "E4", "E20"} {
		t.Run(id, func(t *testing.T) {
			want := readGolden(t, fmt.Sprintf("golden_%s_quick.txt", strings.ToLower(id)))
			for _, frac := range []float64{0.25, 0.50, 0.75} {
				t.Run(fmt.Sprintf("frac%.0f/shards1", 100*frac), func(t *testing.T) {
					resumeAt(t, frac, func() {
						e, err := core.ByID(id)
						if err != nil {
							t.Fatal(err)
						}
						tbl, err := e.Run(true)
						if err != nil {
							t.Fatal(err)
						}
						if got := tbl.Format(); got != want {
							t.Errorf("resume at %.0f%%: %s diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s",
								100*frac, id, want, got)
						}
					})
				})
			}
		})
	}
}

// TestResumedGoldenSweep interrupts the golden load-latency sweep
// mid-point and requires the committed CSV bytes.
func TestResumedGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("resumed golden sweeps are not -short")
	}
	want := readGolden(t, "golden_sweep_seed1.csv")
	for _, frac := range []float64{0.25, 0.75} {
		resumeAt(t, frac, func() {
			if got := goldenSweepCSV(t, 1); got != want {
				t.Errorf("resume at %.0f%%: sweep diverged from straight-through golden", 100*frac)
			}
		})
	}
}
