package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/network"
)

// The tests in this file pin the generator's statistical law rather than
// its exact draws: an open-loop Bernoulli source starts a packet in each
// cycle independently with probability p = Rate/FlitsPerPacket, so its
// per-source packet count is Binomial(cycles, p), its inter-arrival gaps
// are i.i.d. Geometric(p) on {1, 2, ...}, and its destinations follow the
// pattern. Any implementation of that process passes them; one that
// skews the load, correlates the gaps or the destinations, or mishandles
// a mid-run Rate change does not.

// chiSquareCritical is the upper 0.1% point of the χ² distribution with
// df degrees of freedom (Wilson–Hilferty approximation, accurate to a few
// percent for df ≥ 3).
func chiSquareCritical(df int) float64 {
	const z = 3.090 // standard normal upper 0.1% point
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// chiSquare returns Pearson's statistic of observed counts against
// expected counts.
func chiSquare(obs []int64, exp []float64) float64 {
	var x2 float64
	for i := range obs {
		d := float64(obs[i]) - exp[i]
		x2 += d * d / exp[i]
	}
	return x2
}

// recordingPattern wraps a pattern and counts the destinations it picks.
// A generator picks once per packet it offers, so the histogram is the
// offered destinations.
type recordingPattern struct {
	Pattern
	counts []int64
}

func (r *recordingPattern) Pick(src int, rng *rand.Rand) int {
	d := r.Pattern.Pick(src, rng)
	r.counts[d]++
	return d
}

// attachAll puts one generator on every tile of n at rate with
// flitsPerPacket-flit packets, all drawing from seed.
func attachAll(n *network.Network, p Pattern, rate float64, flitsPerPacket int, seed int64) []*Generator {
	gens := make([]*Generator, n.Topology().NumTiles())
	for tile := range gens {
		gens[tile] = NewGenerator(tile, p, rate, flitsPerPacket, flit.VCMask(0xFF), seed)
		n.AttachClient(tile, gens[tile])
	}
	return gens
}

// TestGeneratorLoadBinomial checks every generator's packet count over a
// fixed span against Binomial(cycles, p) within six standard deviations,
// from a near-idle source to one that starts a packet every cycle.
func TestGeneratorLoadBinomial(t *testing.T) {
	cases := []struct {
		p      float64
		cycles int64
	}{
		{0.005, 40000},
		{0.19, 4000},
		{1, 1000},
	}
	for _, c := range cases {
		n := buildNet(t, 11)
		const flits = 2
		gens := attachAll(n, Uniform{Tiles: 16}, c.p*flits, flits, 11)
		n.Run(c.cycles)
		mean := float64(c.cycles) * c.p
		sd := math.Sqrt(mean * (1 - c.p))
		var total int64
		for _, g := range gens {
			if dev := math.Abs(float64(g.GeneratedPackets) - mean); dev > 6*sd {
				t.Errorf("p=%v tile %d: %d packets in %d cycles, want %.1f ± %.1f (6σ)",
					c.p, g.Tile, g.GeneratedPackets, c.cycles, mean, 6*sd)
			}
			total += g.GeneratedPackets
		}
		if total == 0 {
			t.Fatalf("p=%v: no packets generated", c.p)
		}
	}
}

// gapHistogram bins inter-arrival gaps 1..bins-1, with the last bin
// holding every gap of bins or more.
type gapHistogram []int64

func (h gapHistogram) add(gap int64) {
	if gap >= int64(len(h)) {
		gap = int64(len(h))
	}
	h[gap-1]++
}

// geometricExpected returns the expected counts of total Geometric(p)
// gaps on {1, 2, ...} in the bins of a histogram with bins bins.
func geometricExpected(p float64, bins int, total int64) []float64 {
	exp := make([]float64, bins)
	surv := 1.0 // P(gap > k-1)
	for k := 1; k < bins; k++ {
		exp[k-1] = float64(total) * surv * p
		surv *= 1 - p
	}
	exp[bins-1] = float64(total) * surv
	return exp
}

// gapBins is the bin count for Geometric(p) gaps: bins run out where a
// bin's expected share of total would drop below 5 gaps.
func gapBins(p float64, total int64) int {
	bins := 2
	for surv := 1 - p; float64(total)*surv*p >= 5 && bins < 200; surv *= 1 - p {
		bins++
	}
	return bins
}

// rateSegment is a span of cycles run at one start probability.
type rateSegment struct {
	start, end int64
	p          float64
}

// runSegments runs generators on every tile of a 4×4 network through
// the rate schedule segs (contiguous, from cycle 0), setting Rate between
// cycles, and returns each tile's packet start cycles.
func runSegments(t *testing.T, seed int64, segs []rateSegment) [][]int64 {
	t.Helper()
	const flits = 2
	n := buildNet(t, seed)
	gens := attachAll(n, Uniform{Tiles: 16}, segs[0].p*flits, flits, seed)
	starts := make([][]int64, len(gens))
	// This phase runs after the clients phase, so a packet started in
	// cycle now is already counted.
	n.Kernel().AddPhase("test.starts", func(now int64) {
		for i, g := range gens {
			for int64(len(starts[i])) < g.GeneratedPackets {
				starts[i] = append(starts[i], now)
			}
		}
	})
	for _, seg := range segs {
		for _, g := range gens {
			g.Rate = seg.p * flits
		}
		n.Run(seg.end - seg.start)
	}
	return starts
}

// checkGeometric runs a χ² test of gaps against Geometric(p) on
// {1, 2, ...}; gaps past the last bin (including ones known only to
// exceed it) fall in the tail bin.
func checkGeometric(t *testing.T, what string, p float64, gaps []int64) {
	t.Helper()
	total := int64(len(gaps))
	bins := gapBins(p, total)
	h := make(gapHistogram, bins)
	for _, g := range gaps {
		if g < 1 {
			t.Fatalf("%s: gap %d < 1 (two packets in one cycle)", what, g)
		}
		h.add(g)
	}
	x2 := chiSquare(h, geometricExpected(p, bins, total))
	t.Logf("%s (p=%v): χ² = %.1f over %d bins, %d gaps", what, p, x2, bins, total)
	if crit := chiSquareCritical(bins - 1); x2 > crit {
		t.Errorf("%s (p=%v): χ² = %.1f over %d bins (%d gaps) exceeds the 0.1%% critical value %.1f\nhistogram %v",
			what, p, x2, bins, total, crit, h)
	}
}

// TestGeneratorGapsGeometric records every packet start of a 16-tile
// network and tests the inter-arrival gaps against Geometric(p) with a χ²
// test, before and after a mid-run Rate change. A Bernoulli process is
// memoryless, so a segment's first gap is counted from a virtual arrival
// in the cycle before the segment starts and is Geometric(p) as well. The
// one censored gap per tile and segment is left out.
func TestGeneratorGapsGeometric(t *testing.T) {
	segs := []rateSegment{{0, 6000, 0.2}, {6000, 26000, 0.05}}
	starts := runSegments(t, 12, segs)
	for _, seg := range segs {
		var gaps []int64
		for _, st := range starts {
			last := seg.start - 1
			for _, c := range st {
				if c >= seg.start && c < seg.end {
					gaps = append(gaps, c-last)
					last = c
				}
			}
		}
		checkGeometric(t, fmt.Sprintf("cycles [%d, %d)", seg.start, seg.end), seg.p, gaps)
	}
}

// TestGeneratorRateChangeFirstGap alternates the rate between a high and
// a low value every 600 cycles and tests each tile's first gap after each
// change against Geometric(new p). A source that kept the start it had
// scheduled under the old rate fails this: its first gap after a drop
// would be about Geometric(0.25) rather than Geometric(0.02).
func TestGeneratorRateChangeFirstGap(t *testing.T) {
	const span = 600
	var segs []rateSegment
	for i := int64(0); i < 40; i++ {
		p := 0.25
		if i%2 == 1 {
			p = 0.02
		}
		segs = append(segs, rateSegment{i * span, (i + 1) * span, p})
	}
	starts := runSegments(t, 14, segs)
	first := map[float64][]int64{}
	for _, seg := range segs[1:] {
		for _, st := range starts {
			gap := int64(span + 1) // no start in the segment: the gap exceeds it
			for _, c := range st {
				if c >= seg.start {
					if c < seg.end {
						gap = c - (seg.start - 1)
					}
					break
				}
			}
			first[seg.p] = append(first[seg.p], gap)
		}
	}
	for _, p := range []float64{0.25, 0.02} {
		checkGeometric(t, "first gap after a change", p, first[p])
	}
}

// TestGeneratorDestinationsChiSquare tests the destinations the
// generators offer against the pattern's law: uniform over the other 15
// tiles, and the hotspot pattern's half-to-the-hot-tile mix.
func TestGeneratorDestinationsChiSquare(t *testing.T) {
	const tiles = 16
	for _, name := range []string{"uniform", "hotspot"} {
		base, err := ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		n := buildNet(t, 13)
		rec := make([]*recordingPattern, tiles)
		var gens []*Generator
		for tile := 0; tile < tiles; tile++ {
			rec[tile] = &recordingPattern{Pattern: base, counts: make([]int64, tiles)}
			g := NewGenerator(tile, rec[tile], 0.1, 1, flit.VCMask(0xFF), 13)
			n.AttachClient(tile, g)
			gens = append(gens, g)
		}
		n.Run(20000)
		hot := -1
		frac := 0.0
		if h, ok := base.(Hotspot); ok {
			hot, frac = h.Hot, h.Frac
		}
		for src := 0; src < tiles; src++ {
			total := gens[src].GeneratedPackets
			exp := make([]float64, 0, tiles-1)
			obs := make([]int64, 0, tiles-1)
			for d := 0; d < tiles; d++ {
				if d == src {
					if c := rec[src].counts[d]; c != 0 {
						t.Fatalf("%s: tile %d picked itself %d times", name, src, c)
					}
					continue
				}
				share := 1.0 / (tiles - 1)
				if hot >= 0 && src != hot {
					share = (1 - frac) / (tiles - 1)
					if d == hot {
						share += frac
					}
				}
				exp = append(exp, share*float64(total))
				obs = append(obs, rec[src].counts[d])
			}
			x2 := chiSquare(obs, exp)
			if crit := chiSquareCritical(len(obs) - 1); x2 > crit {
				t.Errorf("%s: tile %d destinations χ² = %.1f exceeds %.1f\ncounts %v", name, src, x2, crit, rec[src].counts)
			}
		}
	}
}
