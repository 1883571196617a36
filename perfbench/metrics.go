package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's output contract (BENCHMARK.json declares the same
// names and units; perfbench_test.go holds them equal).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (--trace 0) reports, for every
// workload.
var endToEnd = []metricDef{
	{"cycles_per_s", "1/s"},
	{"setup_s", "s"},
	{"snapshot_ms", "ms"},
	{"fork_ms", "ms"},
	{"mem_mb", "MB"},
}

// sweepRates are the offered loads of the sweep16 campaign; each has its
// own core.point_ms.<rate> per-layer metric.
var sweepRates = []float64{0.05, 0.25, 0.38}

// perLayer is what a traced run (--trace 1) reports, for every workload.
// A layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"traffic.tick_us", "us"},
		{"network.fabric_us", "us"},
		{"latency.tick_us", "us"},
		{"serve.collect_us", "us"},
		{"flightrec.record_us", "us"},
		{"flightrec.record_us.max", "us"},
		{"flightrec.keyframes", "count"},
		{"traffic.packets_per_kcycle", "1/kcycle"},
		{"network.flits_delivered_per_kcycle", "1/kcycle"},
		{"network.flits_in_flight", "flits"},
		{"router.credit_stalls_per_kcycle", "1/kcycle"},
		{"router.arb_losses_per_kcycle", "1/kcycle"},
		{"runtime.alloc_bytes_per_kcycle", "B/kcycle"},
		{"runtime.gc_per_kcycle", "1/kcycle"},
		{"runtime.heap_mb", "MB"},
		{"topology.build_ms", "ms"},
		{"network.new_ms", "ms"},
		{"traffic.attach_ms", "ms"},
		{"observers.attach_ms", "ms"},
		{"checkpoint.image_mb", "MB"},
		{"checkpoint.parse_ms", "ms"},
		{"network.restore_ms", "ms"},
	}
	for _, r := range sweepRates {
		defs = append(defs, metricDef{pointMetric(r), "ms"})
	}
	return append(defs,
		metricDef{"core.points_per_s", "1/s"},
		metricDef{"core.sim_cycles", "cycles"},
		metricDef{"artifact.hits", "count"},
		metricDef{"artifact.misses", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.ref_ms", "ms"},
	)
}()

func pointMetric(rate float64) string {
	return "core.point_ms." + strconv.FormatFloat(rate, 'f', -1, 64)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread is the interquartile range of xs as a share of its median, with
// the quartiles of Python's statistics.quantiles(xs, n=4) (the exclusive
// method) — the statistic README.md reports across runs, here applied
// to the samples inside one run.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeIt runs fn once and returns its wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// settle collects garbage left by earlier stages so it is not charged to
// the next timed call.
func settle() { runtime.GC() }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fields[1], 64)
		return kb / 1024
	}
	return 0
}

// hostProbe is a fixed CPU-bound reference task — integer hashing and a
// sort over a few hundred kilobytes, nothing from the simulator — whose
// wall time tracks the speed the host gives this process. It is recorded
// beside every run so a slow run can be told apart from a slow host.
type hostProbe struct{ samples []float64 }

func (h *hostProbe) run() {
	const n = 1 << 16
	buf := make([]uint64, n)
	t0 := time.Now()
	x := uint64(88172645463325252)
	for round := 0; round < 8; round++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = x
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	}
	h.samples = append(h.samples, ms(time.Since(t0)))
	if buf[0] > buf[n-1] {
		panic("host probe: sort failed")
	}
}

func (h *hostProbe) ms() float64 { return median(h.samples) }

// memDelta brackets a span with runtime.ReadMemStats, read from outside
// the simulator.
type memDelta struct {
	allocBytes, gcs uint64
	heapMB          float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.gcs += uint64(after.NumGC - before.NumGC)
	if h := float64(after.HeapAlloc) / (1 << 20); h > d.heapMB {
		d.heapMB = h
	}
}
