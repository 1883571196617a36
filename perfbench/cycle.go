package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/latency"
	"repro/internal/telemetry/serve"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// cycleSpec is a workload that runs one network for a fixed number of
// cycles and then times fixed-size samples of its cycle loop.
//
// A run: build the network from cold; warm it up for warmup cycles, the
// first half at four times the offered rate so every pool reaches its
// high-water mark; snapshot it, fork the image into a fresh build, run
// the original and the fork for refSpan cycles and compare them; time
// samples of sample cycles until the time budget is spent, with the
// other setupReps, snapReps and forkReps repeats spread between them;
// stop the sources, drain and check.
type cycleSpec struct {
	name     string
	k        int     // k×k folded torus
	rate     float64 // offered flits/cycle/node on the source tiles
	flits    int     // flits per packet
	window   int     // destinations within ±window tiles per dimension
	rowOnly  bool    // sources and destinations on row 0 only
	observed bool    // probe + latency, serve and flightrec observers

	warmup, refSpan, sample int64
	minSamples              int
	setupReps, snapReps     int
	forkReps                int

	// Faults for the negative tests: dropEvery > 0 makes every
	// dropEvery-th offered packet vanish before it reaches the network;
	// tamper, when set, damages the snapshot image before it is forked.
	dropEvery int64
	tamper    func(img []byte)
}

// localPattern picks a destination uniformly within ±window tiles of the
// source in each torus dimension (wrapping, never the source itself), on
// the source's row when rowOnly. It counts its picks: the generator picks
// once per packet it offers, so picks is the offered packet count.
type localPattern struct {
	k, window int
	rowOnly   bool
	picks     int64
	dropEvery int64
}

func (p *localPattern) Name() string { return "local" }

func (p *localPattern) Pick(src int, rng *rand.Rand) int {
	p.picks++
	if p.dropEvery > 0 && p.picks%p.dropEvery == 0 {
		return src // the generator offers nothing to itself
	}
	span := 2*p.window + 1
	for {
		dx, dy := rng.Intn(span)-p.window, 0
		if !p.rowOnly {
			dy = rng.Intn(span) - p.window
		}
		if dx != 0 || dy != 0 {
			x := (src%p.k + dx + p.k) % p.k
			y := (src/p.k + dy + p.k) % p.k
			return y*p.k + x
		}
	}
}

// instance is one built network with its clients and observers.
type instance struct {
	n     *network.Network
	pat   *localPattern
	gens  []*traffic.Generator
	tiles []int
	lat   *latency.Observatory
	rec   *flightrec.Recorder

	topoT, newT, attachT, obsT time.Duration
}

func (s *cycleSpec) configHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%d|%d|%v|%v", s.name, s.k, s.rate, s.flits, s.window, s.rowOnly, s.observed)
	return h.Sum64()
}

// build constructs the workload's network from cold, timing each step.
// With a tracer, marker phases go in before each observer and the
// tracer's end phase and client wrappers after them.
func (s *cycleSpec) build(seed int64, tr *tracer, outDir string) (*instance, error) {
	in := &instance{pat: &localPattern{k: s.k, window: s.window, rowOnly: s.rowOnly, dropEvery: s.dropEvery}}
	var topo *topology.FoldedTorus
	var err error
	in.topoT = timeIt(func() { topo, err = topology.NewFoldedTorus(s.k, s.k) })
	if err != nil {
		return nil, err
	}
	in.newT = timeIt(func() {
		cfg := network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: seed, Shards: 1}
		if s.observed {
			cfg.Probe = telemetry.New(telemetry.Config{SampleEvery: 256})
		}
		in.n, err = network.New(cfg)
	})
	if err != nil {
		return nil, err
	}
	sources := topo.NumTiles()
	if s.rowOnly {
		sources = s.k
	}
	clients := make([]network.StatefulClient, sources)
	in.attachT = timeIt(func() {
		in.gens = make([]*traffic.Generator, sources)
		in.tiles = make([]int, sources)
		for tile := range in.gens {
			g := traffic.NewGenerator(tile, in.pat, s.rate, s.flits, flit.VCMask(0xFF), seed)
			in.n.AttachClient(tile, g)
			in.gens[tile], in.tiles[tile], clients[tile] = g, tile, g
		}
	})
	if s.observed {
		in.obsT = timeIt(func() { err = in.attachObservers(tr, s.configHash(), outDir) })
		if err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.finish(in.n, in.tiles, clients)
	}
	return in, nil
}

// attachObservers attaches the four observers of observed1024: the probe
// (already in the network config) samples its series every 256 cycles;
// the latency observatory classifies flows by source row under one SLO;
// the serve collector snapshots without an HTTP listener; the flight
// recorder keeps its ring and keyframes.
func (in *instance) attachObservers(tr *tracer, hash uint64, outDir string) error {
	var err error
	if tr != nil {
		tr.markObserver(in.n, "latency")
	}
	if in.lat, err = latency.Attach(in.n, latency.Config{Flows: latency.FlowSrcRow, SLO: "p99<=400"}); err != nil {
		return err
	}
	if tr != nil {
		tr.markObserver(in.n, "serve")
	}
	if _, err = serve.AttachCollector(in.n, serve.Config{Flows: in.lat}); err != nil {
		return err
	}
	if tr != nil {
		tr.markObserver(in.n, "flightrec")
	}
	in.rec, err = flightrec.Attach(in.n, flightrec.Config{Dir: filepath.Join(outDir, "flightrec"), ConfigHash: hash})
	if err != nil {
		return err
	}
	in.lat.SetBurnSink(in.rec)
	if tr != nil {
		tr.keyEvery = int64(in.rec.Config().Window / 2)
	}
	return nil
}

func (in *instance) setRate(rate float64) {
	for _, g := range in.gens {
		g.Rate = rate
	}
}

// loadTolerance is how far accepted load may stray from offered load
// when expPackets packets are expected: 5%, or six binomial standard
// deviations when that few packets make 5% too tight. A silent drop of
// the packets a route cannot reach (ROADMAP item 1) costs far more.
func loadTolerance(expPackets float64) float64 {
	return math.Max(0.05, 6/math.Sqrt(expPackets))
}

// state is the simulated outcome the checks compare and the digest
// hashes.
type state struct {
	Cycle, Picks, Generated, Injected, Delivered, DeliveredFlits int64
	LatCount, LatSum, LatMax, NetLatSum, Outstanding, Occupancy  int64
}

func (in *instance) state() state { return netState(in.n, in.pat.picks) }

// netState reads the outcome of n, given the packets its sources offered.
func netState(n *network.Network, picks int64) state {
	r := n.Recorder()
	return state{
		Cycle: n.Kernel().Now(), Picks: picks,
		Generated: r.Generated, Injected: r.InjectedPackets,
		Delivered: r.DeliveredPackets, DeliveredFlits: r.DeliveredFlits,
		LatCount: r.PacketLatency.Count(), LatSum: r.PacketLatency.Sum(), LatMax: r.PacketLatency.Max(),
		NetLatSum: r.NetworkLatency.Sum(), Outstanding: n.FlitsOutstanding(), Occupancy: int64(n.Occupancy()),
	}
}

func (st state) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	return fmt.Sprintf("%016x", h.Sum64())
}

// probeTotals sums the router probe counters the per-layer metrics use.
func (in *instance) probeTotals() (creditStalls, arbLosses, delivered int64) {
	p := in.n.Probe()
	if p == nil {
		return 0, 0, 0
	}
	for _, rp := range p.Routers {
		if rp != nil {
			creditStalls += rp.CreditStalls
			arbLosses += rp.ArbLosses
			delivered += rp.DeliveredPackets
		}
	}
	return
}

// repeats collects a run's repeated short timings, in ms: cold set-ups
// and their steps, snapshots, and forks with their two halves.
type repeats struct {
	setup, topo, newNet, attach, obs []float64
	snap, fork, parse, restore       []float64
}

func (r *repeats) addSetup(in *instance) {
	r.setup = append(r.setup, ms(in.topoT+in.newT+in.attachT+in.obsT))
	r.topo, r.newNet = append(r.topo, ms(in.topoT)), append(r.newNet, ms(in.newT))
	r.attach, r.obs = append(r.attach, ms(in.attachT)), append(r.obs, ms(in.obsT))
}

// forkRep builds a fresh instance and restores img into it, recording
// the time of Network.Fork or, traced, of its two halves apart:
// checkpoint.Parse and Network.RestoreCheckpoint.
func (s *cycleSpec) forkRep(img []byte, o options, r *repeats) (*instance, error) {
	f, err := s.build(o.seed, nil, o.outDir)
	if err != nil {
		return nil, err
	}
	settle()
	if !o.trace {
		r.fork = append(r.fork, ms(timeIt(func() { err = f.n.Fork(img, s.configHash()) })))
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	var file *checkpoint.File
	parse := timeIt(func() { file, err = checkpoint.Parse(img) })
	if err != nil {
		return nil, err
	}
	restore := timeIt(func() { err = f.n.RestoreCheckpoint(file) })
	if err != nil {
		return nil, err
	}
	r.fork = append(r.fork, ms(parse+restore))
	r.parse, r.restore = append(r.parse, ms(parse)), append(r.restore, ms(restore))
	return f, nil
}

// run executes the workload and fills res.
func (s *cycleSpec) run(o options, res *result) error {
	var tr *tracer
	if o.trace {
		tr = newTracer(s.sample / 16)
	}
	host := &hostProbe{}
	host.run()
	var rep repeats

	// The network the run keeps is the first set-up repeat.
	settle()
	in, err := s.build(o.seed, tr, o.outDir)
	if err != nil {
		return err
	}
	rep.addSetup(in)

	// Warm-up, the first half overdriven.
	in.setRate(4 * s.rate)
	in.n.Run(s.warmup / 2)
	in.setRate(s.rate)
	in.n.Run(s.warmup - s.warmup/2)

	// Snapshot at the fixed cycle; fork the image and check the fork.
	hash := s.configHash()
	settle()
	var img []byte
	rep.snap = append(rep.snap, ms(timeIt(func() { img, err = in.n.Snapshot(hash) })))
	if err != nil {
		return err
	}
	if s.tamper != nil {
		s.tamper(img)
	}
	fork, err := s.forkRep(img, o, &rep)
	forked := err == nil
	if !forked {
		res.fail("fork: " + err.Error())
	} else if again, err := fork.n.Snapshot(hash); err != nil || !bytes.Equal(again, img) {
		res.fail(fmt.Sprintf("fork: a snapshot of the fork differs from the image it was restored from (err %v)", err))
	}
	base := in.state()
	in.n.Run(s.refSpan)
	ref := in.state()
	res.digest = ref.digest()
	if forked {
		fork.n.Run(s.refSpan)
		got := fork.state()
		got.Picks += base.Picks // the fork's pattern counted from the fork on
		if leak := got.Outstanding - ref.Outstanding; leak != 0 {
			// Reported, not gated: Fork's pool accounting differs from
			// the original's while the simulated state agrees (see
			// README.md, "Known defects").
			res.note("fork pool balance: the fork counts %d more live pool flits than the original", leak)
		}
		got.Outstanding = ref.Outstanding
		if got != ref {
			res.fail(fmt.Sprintf("fork: forked network diverged after %d cycles:\n  original %+v\n  fork     %+v", s.refSpan, ref, got))
		}
	}
	fork = nil

	// The other repeats run between the timed samples, spread evenly over
	// them, so their medians see the same host as the samples do rather
	// than one second of it. Snapshot repeats are of the running network
	// (whose state is the same size at every sample boundary); fork
	// repeats restore the image of the fixed cycle.
	var ops []func() error
	for i := 1; i < s.setupReps || i < s.snapReps || i < s.forkReps; i++ {
		if i < s.setupReps {
			ops = append(ops, func() error {
				settle()
				b, err := s.build(o.seed, nil, o.outDir)
				if err == nil {
					rep.addSetup(b)
				}
				return err
			})
		}
		if i < s.snapReps {
			ops = append(ops, func() error {
				settle()
				var err error
				rep.snap = append(rep.snap, ms(timeIt(func() { _, err = in.n.Snapshot(hash) })))
				return err
			})
		}
		if i < s.forkReps && forked {
			ops = append(ops, func() error {
				_, err := s.forkRep(img, o, &rep)
				return err
			})
		}
	}
	settle()
	host.run()

	// Timed samples. In a traced run, untraced and traced samples
	// alternate, so the tracing overhead is measured on the same stretch
	// of host time.
	var untraced, traced []float64
	var tracedTime time.Duration
	var mem memDelta
	var spanCycles int64
	start := in.state()
	stalls0, losses0, _ := in.probeTotals()
	t0 := time.Now()
	for i, done := 0, 0; ; i++ {
		on := tr != nil && i%2 == 1
		var m0 runtime.MemStats
		if on {
			tr.begin(in.n)
		} else {
			m0 = readMem()
		}
		d := timeIt(func() { in.n.Run(s.sample) })
		rate := float64(s.sample) / d.Seconds()
		if on {
			tr.end(in.n)
			traced = append(traced, rate)
			tracedTime += d
		} else {
			m1 := readMem()
			mem.add(&m0, &m1)
			spanCycles += s.sample
			untraced = append(untraced, rate)
		}
		elapsed := time.Since(t0)
		for done < len(ops) && float64(done) < float64(len(ops))*elapsed.Seconds()/o.seconds.Seconds() {
			if err := ops[done](); err != nil {
				return err
			}
			done++
			settle()
		}
		enough := len(untraced) >= s.minSamples && (tr == nil || len(traced) >= s.minSamples)
		if enough && done == len(ops) && elapsed >= o.seconds {
			break
		}
	}
	end := in.state()
	stalls1, losses1, _ := in.probeTotals()
	host.run()

	// Stop the sources and drain.
	for _, g := range in.gens {
		g.StopAt = 1
	}
	if !in.n.Drain(200000) {
		res.fail("drain: network did not empty within 200000 cycles")
	}
	s.check(in, start, end, res)

	cycles := end.Cycle - start.Cycle
	res.attempted = in.pat.picks
	res.failed = in.pat.picks - in.n.Recorder().DeliveredPackets
	res.note("pinned: shards=%d parallelism=1 gomaxprocs=%d", in.n.Shards(), gomaxprocs())
	res.note("host.ref_ms=%.3f (samples %v)", host.ms(), roundAll(host.samples))
	res.note("digest=%s at cycle %d (%+v)", res.digest, ref.Cycle, ref)
	res.note("timed: %d cycles, %d untraced samples of %d cycles, in-run spread %.3f", cycles, len(untraced), s.sample, spread(untraced))
	res.note("snapshot %d bytes", len(img))
	res.note("setup_ms samples %v (spread %.3f)", roundAll(rep.setup), spread(rep.setup))
	res.note("snapshot_ms samples %v (spread %.3f)", roundAll(rep.snap), spread(rep.snap))
	res.note("fork_ms samples %v (spread %.3f)", roundAll(rep.fork), spread(rep.fork))

	res.e2e["cycles_per_s"] = median(untraced)
	res.e2e["setup_s"] = median(rep.setup) / 1000
	res.e2e["snapshot_ms"] = median(rep.snap)
	res.e2e["fork_ms"] = median(rep.fork)
	res.e2e["mem_mb"] = peakRSSMB()

	if tr == nil {
		return nil
	}
	perK := func(x int64) float64 { return float64(x) * 1000 / float64(cycles) }
	memK := func(x uint64) float64 { return float64(x) * 1000 / float64(spanCycles) }
	l := res.layer
	l["traffic.tick_us"] = tr.perCycleUs(tr.clientsNs)
	l["network.fabric_us"] = tr.perCycleUs(tr.fabricNs)
	l["latency.tick_us"], _ = tr.observerUs("latency")
	l["serve.collect_us"], _ = tr.observerUs("serve")
	l["flightrec.record_us"], l["flightrec.record_us.max"] = tr.observerUs("flightrec")
	l["flightrec.keyframes"] = float64(tr.keyframes)
	l["traffic.packets_per_kcycle"] = perK(end.Picks - start.Picks)
	l["network.flits_delivered_per_kcycle"] = perK(end.DeliveredFlits - start.DeliveredFlits)
	if tr.occN > 0 {
		l["network.flits_in_flight"] = float64(tr.occSum) / float64(tr.occN)
	}
	l["router.credit_stalls_per_kcycle"] = perK(stalls1 - stalls0)
	l["router.arb_losses_per_kcycle"] = perK(losses1 - losses0)
	l["runtime.alloc_bytes_per_kcycle"] = memK(mem.allocBytes)
	l["runtime.gc_per_kcycle"] = memK(mem.gcs)
	l["runtime.heap_mb"] = mem.heapMB
	l["topology.build_ms"] = median(rep.topo)
	l["network.new_ms"] = median(rep.newNet)
	l["traffic.attach_ms"] = median(rep.attach)
	l["observers.attach_ms"] = median(rep.obs)
	l["checkpoint.image_mb"] = float64(len(img)) / (1 << 20)
	l["checkpoint.parse_ms"] = median(rep.parse)
	l["network.restore_ms"] = median(rep.restore)
	l["trace.overhead_pct"] = (median(untraced)/median(traced) - 1) * 100
	l["host.ref_ms"] = host.ms()

	sum := l["traffic.tick_us"] + l["network.fabric_us"] + l["latency.tick_us"] + l["serve.collect_us"] + l["flightrec.record_us"]
	wall := float64(tracedTime.Microseconds()) / float64(tr.cycles)
	res.note("per-layer: the layers sum to %.3f us/cycle of %.3f us/cycle traced (%.1f%% in tracer bookkeeping); untraced %.3f us/cycle, overhead %.2f%%",
		sum, wall, 100*(1-sum/wall), 1e6/median(untraced), l["trace.overhead_pct"])
	return writeSpans(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed)), tr.spans)
}

// check applies the output checks after the drain.
func (s *cycleSpec) check(in *instance, start, end state, res *result) {
	fin := in.state()
	if fin.Outstanding != 0 || fin.Occupancy != 0 {
		res.fail(fmt.Sprintf("drain: %d flits outstanding, %d buffered after drain", fin.Outstanding, fin.Occupancy))
	}
	if fin.Picks != fin.Generated {
		res.fail(fmt.Sprintf("sends: %d packets offered, %d accepted by the network (%d dropped)", fin.Picks, fin.Generated, fin.Picks-fin.Generated))
	}
	if fin.Delivered != fin.Generated {
		res.fail(fmt.Sprintf("delivery: %d packets generated, %d delivered", fin.Generated, fin.Delivered))
	}
	// Accepted load over the timed span against the nominal offered load.
	sources := float64(len(in.gens))
	cycles := float64(end.Cycle - start.Cycle)
	tol := loadTolerance(sources * cycles * s.rate / float64(s.flits))
	accepted := float64(end.DeliveredFlits-start.DeliveredFlits) / cycles / sources
	if math.Abs(accepted/s.rate-1) > tol {
		res.fail(fmt.Sprintf("load: accepted %.5f flits/cycle/source, offered %.5f (tolerance %.1f%%)", accepted, s.rate, 100*tol))
	}
	res.note("load: offered %.5f, accepted %.5f flits/cycle/source over the timed span (tolerance %.1f%%)", s.rate, accepted, 100*tol)
	if !s.observed {
		return
	}
	if _, _, d := in.probeTotals(); d != fin.Delivered {
		res.fail(fmt.Sprintf("probe: routers counted %d delivered packets, recorder %d", d, fin.Delivered))
	}
	if err := in.rec.Err(); err != nil || len(in.rec.Dumps()) > 0 {
		res.fail(fmt.Sprintf("flightrec: healthy run dumped %v (err %v)", in.rec.Dumps(), err))
	}
	if !in.lat.Healthy() {
		res.fail("latency: SLO firing on a run far below saturation")
	}
}
