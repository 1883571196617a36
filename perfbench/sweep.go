package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/artifact"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/traffic"
)

// sweepSpec is a load–latency campaign through the warm-fork engine:
// core.SweepReplicated over rates on a k×k torus with uniform traffic,
// replicas measurement windows forked from one warm-up per rate.
//
// A run: build the network cold setupReps times; snapshot one warmed
// network, fork it into a reset one and compare the fork with the
// original; then time campaigns until the time budget is spent, with the
// other snapshot and fork repeats spread between them. The first
// campaign is checked against plain single runs, and every later one
// must equal it.
type sweepSpec struct {
	name            string
	k               int
	rates           []float64
	replicas, flits int
	warmup, measure int64
	// knee is the saturation knee: below it every replica must accept
	// what it offers.
	knee                          float64
	minCampaigns                  int
	setupReps, snapReps, forkReps int
}

func (s *sweepSpec) params(seed int64, rate float64) core.RunParams {
	p := core.DefaultRunParams()
	p.K, p.FlitsPerPacket = s.k, s.flits
	p.WarmupCycles, p.MeasureCycles = s.warmup, s.measure
	p.Seed, p.Rate, p.Shards = seed, rate, 1
	return p
}

// attach puts the campaign's generators on n the way core's runner does
// (same pattern, mask, seeds and stop cycle), so a plain run of n
// reproduces replica 0 of the campaign.
func (s *sweepSpec) attach(n *network.Network, p core.RunParams) ([]*traffic.Generator, error) {
	pat, err := traffic.ByName(p.Pattern, p.K, p.K)
	if err != nil {
		return nil, err
	}
	stopAt := p.WarmupCycles + p.MeasureCycles
	n.Recorder().MeasureUntil = stopAt
	gens := make([]*traffic.Generator, n.Topology().NumTiles())
	for tile := range gens {
		gens[tile] = traffic.NewGenerator(tile, pat, p.Rate, p.FlitsPerPacket, flit.VCMask(0xFF), p.Seed)
		gens[tile].StopAt = stopAt
		n.AttachClient(tile, gens[tile])
	}
	return gens, nil
}

func offered(gens []*traffic.Generator) int64 {
	var total int64
	for _, g := range gens {
		total += g.GeneratedPackets
	}
	return total
}

func (s *sweepSpec) run(o options, res *result) error {
	host := &hostProbe{}
	host.run()
	mid := s.params(o.seed, s.rates[len(s.rates)/2])

	// Set-up: a cold core.BuildNetwork, with the artifact cache and the
	// network arena emptied first.
	var setup, topoT, attachT []float64
	var n *network.Network
	var gens []*traffic.Generator
	for i := 0; i < s.setupReps; i++ {
		artifact.Default.Clear()
		core.DrainArena()
		n = nil
		settle()
		var err error
		d := timeIt(func() { n, _, err = core.BuildNetwork(mid) })
		if err != nil {
			return err
		}
		setup = append(setup, ms(d))
		topoT = append(topoT, ms(timeIt(func() { _, err = core.BuildTopology(mid.Topology, mid.K) })))
		if err != nil {
			return err
		}
		attachT = append(attachT, ms(timeIt(func() { gens, err = s.attach(n, mid) })))
		if err != nil {
			return err
		}
	}

	// Snapshot a warmed network and fork the image into a reset one, the
	// way each replica of a campaign starts. The fork's own snapshot must
	// equal the image, and the fork and the original must agree after
	// the measured window.
	hash := uint64(0x5EE916)
	n.Run(s.warmup)
	var img []byte
	var snap, forkT, parseT, restoreT []float64
	f, _, err := core.BuildNetwork(mid)
	if err != nil {
		return err
	}
	forkRep := func() ([]*traffic.Generator, error) {
		settle()
		if err := f.Reset(mid.Seed, mid.WarmupCycles); err != nil {
			return nil, err
		}
		fgens, err := s.attach(f, mid)
		if err != nil {
			return nil, err
		}
		if !o.trace {
			forkT = append(forkT, ms(timeIt(func() { err = f.Fork(img, hash) })))
			return fgens, err
		}
		var file *checkpoint.File
		if parseT = append(parseT, ms(timeIt(func() { file, err = checkpoint.Parse(img) }))); err != nil {
			return nil, err
		}
		restoreT = append(restoreT, ms(timeIt(func() { err = f.RestoreCheckpoint(file) })))
		return fgens, err
	}
	settle()
	snap = append(snap, ms(timeIt(func() { img, err = n.Snapshot(hash) })))
	if err != nil {
		return err
	}
	fgens, err := forkRep()
	forked := err == nil
	if !forked {
		res.fail("fork: " + err.Error())
	} else if again, err := f.Snapshot(hash); err != nil || !bytes.Equal(again, img) {
		res.fail(fmt.Sprintf("fork: a snapshot of the fork differs from the image it was restored from (err %v)", err))
	}
	if forked {
		f.Run(s.measure)
		n.Run(s.measure)
		a, b := netState(n, offered(gens)), netState(f, offered(fgens))
		if leak := b.Outstanding - a.Outstanding; leak != 0 {
			res.note("fork pool balance: the fork counts %d more live pool flits than the original", leak)
		}
		if b.Outstanding = a.Outstanding; a != b {
			res.fail(fmt.Sprintf("fork: forked network diverged after %d cycles:\n  original %+v\n  fork     %+v", s.measure, a, b))
		}
	}

	// The other snapshot and fork repeats run between the timed calls,
	// spread evenly over them (see cycleSpec.run). Snapshot repeats are of
	// the original, now stopped at the end of its measured window; fork
	// repeats restore the warm-up image.
	var ops []func() error
	var later []byte
	for i := 1; i < s.snapReps || i < s.forkReps; i++ {
		if i < s.snapReps {
			ops = append(ops, func() error {
				settle()
				var again []byte
				var err error
				snap = append(snap, ms(timeIt(func() { again, err = n.Snapshot(hash) })))
				if err == nil && later != nil && !bytes.Equal(later, again) {
					res.fail("snapshot: repeated snapshots of one state differ")
				}
				later = again
				return err
			})
		}
		if i < s.forkReps && forked {
			ops = append(ops, func() error {
				_, err := forkRep()
				return err
			})
		}
	}

	// Timed campaigns, one rate per core.SweepReplicated call so each
	// rate's time is a sample of its own. The first campaign, from an
	// empty arena and artifact cache, is the reference: it is checked
	// against plain runs, and every later campaign must equal it. Traced
	// runs keep spans on every other campaign.
	artifact.Default.Clear()
	core.DrainArena()
	settle()
	base := s.params(o.seed, 0)
	points := int64(len(s.rates) * s.replicas)
	var ref []core.ReplicatedPoint
	var hits, misses, generated, refCycles int64
	rateCycles := make([]int64, len(s.rates))
	perRate := make([][]float64, len(s.rates))
	tracedRate := make([][]float64, len(s.rates))
	var spans []span
	var mem memDelta
	var memCycles int64
	t0 := time.Now()
	for i, done := 0, 0; ; i++ {
		on := o.trace && i%2 == 1
		got := make([]core.ReplicatedPoint, len(s.rates))
		start := time.Since(t0)
		for j, r := range s.rates {
			m0 := readMem()
			cr := core.SimulatedCycles()
			t := time.Since(t0)
			var pts []core.ReplicatedPoint
			d := timeIt(func() { pts, err = core.SweepReplicated(base, []float64{r}, s.replicas) })
			if err != nil {
				return err
			}
			got[j] = pts[0]
			rateCycles[j] = core.SimulatedCycles() - cr
			if !on {
				m1 := readMem()
				mem.add(&m0, &m1)
				memCycles += rateCycles[j]
			}
			elapsed := time.Since(t0)
			for done < len(ops) && float64(done) < float64(len(ops))*elapsed.Seconds()/o.seconds.Seconds() {
				if err := ops[done](); err != nil {
					return err
				}
				done++
				settle()
			}
			if on {
				tracedRate[j] = append(tracedRate[j], ms(d))
				spans = append(spans, span{int64(i), pointMetric(r), "campaign", int64(t), int64(t + d)})
			} else {
				perRate[j] = append(perRate[j], ms(d))
			}
		}
		if on {
			spans = append(spans, span{int64(i), "campaign", "", int64(start), int64(time.Since(t0))})
		}
		res.attempted += points
		if ref == nil {
			ref = got
			hits, misses = artifact.Stats()
			generated, refCycles = s.checkReference(o.seed, ref, res)
			res.digest = digestOf(ref)
			host.run()
		} else if !reflect.DeepEqual(got, ref) {
			res.failed += points
			res.fail(fmt.Sprintf("campaign %d: result differs from the reference campaign", i))
		}
		enough := len(perRate[0]) >= s.minCampaigns && (!o.trace || len(tracedRate[0]) >= s.minCampaigns)
		if enough && done == len(ops) && time.Since(t0) >= o.seconds {
			break
		}
	}
	host.run()

	// A campaign's time is the sum of its rates' median times.
	var campaignCycles int64
	var campaign, tracedCampaign float64
	for j := range s.rates {
		campaignCycles += rateCycles[j]
		campaign += median(perRate[j]) / 1000
		tracedCampaign += median(tracedRate[j]) / 1000
	}
	res.note("pinned: shards=1 parallelism=%d gomaxprocs=%d", core.Parallelism(), gomaxprocs())
	res.note("host.ref_ms=%.3f (samples %v)", host.ms(), roundAll(host.samples))
	res.note("digest=%s over %d points of the reference campaign", res.digest, points)
	res.note("timed: %d campaigns of %d points and %d cycles, %.3f s each (sum of the rates' medians)", len(perRate[0]), points, campaignCycles, campaign)
	for j, r := range s.rates {
		res.note("rate %g: %d cycles; ms samples %v (spread %.3f)", r, rateCycles[j], roundAll(perRate[j]), spread(perRate[j]))
	}
	res.note("snapshot %d bytes", len(img))
	res.note("setup_ms samples %v (spread %.3f)", roundAll(setup), spread(setup))
	res.note("snapshot_ms samples %v (spread %.3f)", roundAll(snap), spread(snap))
	res.note("fork_ms samples %v (spread %.3f)", roundAll(forkT), spread(forkT))

	res.e2e["cycles_per_s"] = float64(campaignCycles) / campaign
	res.e2e["setup_s"] = median(setup) / 1000
	res.e2e["snapshot_ms"] = median(snap)
	res.e2e["fork_ms"] = median(forkT)
	res.e2e["mem_mb"] = peakRSSMB()
	if !o.trace {
		return nil
	}
	l := res.layer
	for j, r := range s.rates {
		l[pointMetric(r)] = median(tracedRate[j])
	}
	perK := func(x int64) float64 { return float64(x) * 1000 / float64(refCycles) }
	l["traffic.packets_per_kcycle"] = perK(generated)
	l["network.flits_delivered_per_kcycle"] = perK(generated * int64(s.flits))
	l["runtime.alloc_bytes_per_kcycle"] = float64(mem.allocBytes) * 1000 / float64(memCycles)
	l["runtime.gc_per_kcycle"] = float64(mem.gcs) * 1000 / float64(memCycles)
	l["runtime.heap_mb"] = mem.heapMB
	l["topology.build_ms"] = median(topoT)
	l["network.new_ms"] = median(setup)
	l["traffic.attach_ms"] = median(attachT)
	l["checkpoint.image_mb"] = float64(len(img)) / (1 << 20)
	l["checkpoint.parse_ms"] = median(parseT)
	l["network.restore_ms"] = median(restoreT)
	l["core.points_per_s"] = float64(points) / campaign
	l["core.sim_cycles"] = float64(campaignCycles)
	l["artifact.hits"], l["artifact.misses"] = float64(hits), float64(misses)
	l["trace.overhead_pct"] = (tracedCampaign/campaign - 1) * 100
	l["host.ref_ms"] = host.ms()
	return writeSpans(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed)), spans)
}

// checkReference checks the reference campaign: no router drops; below
// the knee every replica accepts its offered load (see loadTolerance); and
// replica 0 of every rate equals a plain run of the same parameters,
// which must drain with every packet it generated delivered. It returns
// the packets generated and the cycles simulated by the plain runs.
func (s *sweepSpec) checkReference(seed int64, ref []core.ReplicatedPoint, res *result) (generated, cycles int64) {
	for i, pt := range ref {
		bad := false
		p := s.params(seed, s.rates[i])
		tol := loadTolerance(float64(p.K*p.K) * float64(p.MeasureCycles) * p.Rate / float64(p.FlitsPerPacket))
		for _, r := range pt.Replicas {
			if r.DroppedPackets != 0 {
				res.fail(fmt.Sprintf("rate %g: %d packets dropped", pt.Rate, r.DroppedPackets))
				bad = true
			}
			if pt.Rate < s.knee && math.Abs(r.AcceptedFlits/r.OfferedFlits-1) > tol {
				res.fail(fmt.Sprintf("rate %g: accepted %.4f flits/cycle/node of %.4f offered (tolerance %.1f%%)", pt.Rate, r.AcceptedFlits, r.OfferedFlits, 100*tol))
				bad = true
			}
		}
		n, _, err := core.BuildNetwork(p)
		if err != nil {
			res.fail(err.Error())
			continue
		}
		gens, err := s.attach(n, p)
		if err != nil {
			res.fail(err.Error())
			continue
		}
		n.Run(p.WarmupCycles + p.MeasureCycles)
		if !n.Drain(p.DrainBudget) {
			res.fail(fmt.Sprintf("rate %g: plain run did not drain within %d cycles", pt.Rate, p.DrainBudget))
			bad = true
		}
		st := netState(n, offered(gens))
		if st.Outstanding != 0 || st.Delivered != st.Generated || st.Picks != st.Generated {
			res.fail(fmt.Sprintf("rate %g: plain run ended with %+v", pt.Rate, st))
			bad = true
		}
		accepted := float64(n.Recorder().WindowFlits) / float64(p.MeasureCycles) / float64(n.Topology().NumTiles())
		if r0 := pt.Replicas[0]; r0.DeliveredPackets != st.Delivered || r0.AcceptedFlits != accepted {
			res.fail(fmt.Sprintf("rate %g: replica 0 (%d packets, %.6f accepted) differs from the plain run (%d, %.6f)",
				pt.Rate, r0.DeliveredPackets, r0.AcceptedFlits, st.Delivered, accepted))
			bad = true
		}
		if bad {
			res.failed += int64(len(pt.Replicas))
		}
		generated += st.Generated
		cycles += st.Cycle
		res.note("rate %g: accepted %.4f flits/cycle/node (replica 0), mean latency %.2f cycles, plain run %d packets delivered",
			pt.Rate, pt.Replicas[0].AcceptedFlits, pt.Mean().AvgLatency, st.Delivered)
	}
	return generated, cycles
}

// digestOf hashes a campaign's results.
func digestOf(pts []core.ReplicatedPoint) string {
	h := fnv.New64a()
	for _, pt := range pts {
		for _, r := range pt.Replicas {
			fmt.Fprintf(h, "%g|%d|%d|%d|%d|%x|%x|%x|", pt.Rate, r.DeliveredPackets, r.P50Latency, r.P99Latency, r.MaxLatency,
				math.Float64bits(r.AcceptedFlits), math.Float64bits(r.AvgLatency), math.Float64bits(r.LinkUtilMean))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
