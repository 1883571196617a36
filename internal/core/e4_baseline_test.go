package core

import (
	"math"
	"testing"
)

// e4Baseline is E4's quick-mode mean packet latency per offered rate,
// averaged over seeds 1–5, with its seed-to-seed sample standard
// deviation, as recorded with the per-cycle Bernoulli generator (one
// Float64 draw per source per cycle). The generator now draws a
// geometric gap per packet instead, which is the same process; this
// table keeps the change honest about that.
var e4Baseline = map[string][]struct{ rate, mean, sd float64 }{
	"mesh": {
		{0.1, 17.541, 0.119},
		{0.3, 26.706, 0.394},
		{0.5, 175.522, 8.100},
		{0.7, 654.861, 12.916},
		{0.9, 1124.127, 35.710},
	},
	"torus": {
		{0.1, 14.507, 0.077},
		{0.3, 18.520, 0.090},
		{0.5, 26.883, 0.440},
		{0.7, 59.879, 7.203},
		{0.9, 293.767, 27.144},
	},
}

// TestE4LatencyMatchesBaseline reruns E4's quick sweep on seeds 1–5 and
// requires each rate's mean latency over the seeds to lie within four
// baseline standard deviations of the baseline mean. The difference of
// two five-seed means has a standard deviation of about 0.63 σ, so the
// bound sits beyond 6 of those: only a changed traffic law fails it.
func TestE4LatencyMatchesBaseline(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("50 runs of the E4 quick sweep; the traffic law has no concurrency for -race to check")
	}
	const seeds = 5
	for topo, rows := range e4Baseline {
		rates := make([]float64, len(rows))
		for i, r := range rows {
			rates[i] = r.rate
		}
		sums := make([]float64, len(rows))
		for seed := int64(1); seed <= seeds; seed++ {
			p := DefaultRunParams()
			p.K = 8
			p.FlitsPerPacket = 4
			p.WarmupCycles, p.MeasureCycles = 500, 1200
			p.Topology = topo
			p.Seed = seed
			pts, err := Sweep(p, rates)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range pts {
				sums[i] += pt.Result.AvgLatency
			}
		}
		for i, r := range rows {
			mean := sums[i] / seeds
			t.Logf("%s rate %.1f: mean latency %.3f, baseline %.3f ± %.3f", topo, r.rate, mean, r.mean, r.sd)
			if math.Abs(mean-r.mean) > 4*r.sd {
				t.Errorf("%s rate %.1f: mean latency over seeds 1–5 is %.3f, baseline %.3f ± 4×%.3f",
					topo, r.rate, mean, r.mean, r.sd)
			}
		}
	}
}
