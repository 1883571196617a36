package serve

import (
	"bufio"
	"fmt"
	"io"
	"runtime/debug"
	"runtime/metrics"
	"strconv"

	"repro/internal/artifact"
)

// Runtime self-monitoring: /metrics appends Go process rows after the
// simulation rows so the observability service watches itself too —
// goroutine leaks, heap growth, and GC pauses all show up on the same
// scrape. These values are read from runtime/metrics at request time and
// never enter a Snapshot: snapshots are deterministic and process
// vitals are not.

// runtimeSamples are the runtime/metrics series /metrics exports. The
// slice is package-level documentation of the contract; WriteRuntimeProm
// copies it per call so concurrent scrapes don't share Sample slots.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// buildGoVersion/buildModule/buildRevision are resolved once from the
// binary's embedded build information.
var buildGoVersion, buildModule, buildRevision = readBuildInfo()

func readBuildInfo() (goVersion, module, revision string) {
	goVersion, module, revision = "unknown", "unknown", ""
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	if bi.Main.Path != "" {
		module = bi.Main.Path
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return
}

// WriteRuntimeProm renders the Go runtime and build-info rows in the
// Prometheus text exposition format: goroutine count, heap and total
// memory, GC cycle count, GC pause quantiles, and a constant
// noc_build_info gauge carrying the build identity as labels.
func WriteRuntimeProm(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)

	bw := bufio.NewWriter(w)
	gauge := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	u64 := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}

	gauge("noc_go_goroutines", "Live goroutines in the process.")
	fmt.Fprintf(bw, "noc_go_goroutines %d\n", u64(0))
	gauge("noc_go_heap_objects_bytes", "Bytes of live heap objects (runtime/metrics).")
	fmt.Fprintf(bw, "noc_go_heap_objects_bytes %d\n", u64(1))
	gauge("noc_go_memory_total_bytes", "Bytes mapped by the Go runtime.")
	fmt.Fprintf(bw, "noc_go_memory_total_bytes %d\n", u64(2))
	counter("noc_go_gc_cycles_total", "Completed GC cycles.")
	fmt.Fprintf(bw, "noc_go_gc_cycles_total %d\n", u64(3))

	fmt.Fprint(bw, "# HELP noc_go_gc_pause_seconds GC stop-the-world pause distribution.\n# TYPE noc_go_gc_pause_seconds summary\n")
	if h := samples[4].Value; h.Kind() == metrics.KindFloat64Histogram {
		dist := h.Float64Histogram()
		for _, q := range []float64{0.5, 0.99, 1} {
			fmt.Fprintf(bw, "noc_go_gc_pause_seconds{quantile=%q} %s\n",
				strconv.FormatFloat(q, 'g', -1, 64), formatSeconds(histQuantile(dist, q)))
		}
		fmt.Fprintf(bw, "noc_go_gc_pause_seconds_count %d\n", histCount(dist))
	} else {
		fmt.Fprint(bw, "noc_go_gc_pause_seconds_count 0\n")
	}

	gauge("noc_build_info", "Build identity of the serving binary (constant 1; labels carry the info).")
	fmt.Fprintf(bw, "noc_build_info{go_version=%q,module=%q,revision=%q} 1\n",
		buildGoVersion, buildModule, buildRevision)
	return bw.Flush()
}

// WriteArtifactProm renders the process-global artifact cache's hit,
// miss, and entry counts. Like the runtime rows these are read at
// request time and never enter a Snapshot: the cache is shared by every
// run in the process, so its counters are operational, not per-run
// simulation state.
func WriteArtifactProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hits, misses := artifact.Stats()
	fmt.Fprint(bw, "# HELP noc_artifact_cache_hits_total Artifact-cache lookups that found an existing entry.\n# TYPE noc_artifact_cache_hits_total counter\n")
	fmt.Fprintf(bw, "noc_artifact_cache_hits_total %d\n", hits)
	fmt.Fprint(bw, "# HELP noc_artifact_cache_misses_total Artifact-cache lookups that built a new entry.\n# TYPE noc_artifact_cache_misses_total counter\n")
	fmt.Fprintf(bw, "noc_artifact_cache_misses_total %d\n", misses)
	fmt.Fprint(bw, "# HELP noc_artifact_cache_entries Immutable artifacts resident in the cache.\n# TYPE noc_artifact_cache_entries gauge\n")
	fmt.Fprintf(bw, "noc_artifact_cache_entries %d\n", artifact.Default.Len())
	return bw.Flush()
}

func histCount(h *metrics.Float64Histogram) (total uint64) {
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// histQuantile reads quantile q off a runtime/metrics histogram, using
// each counted bucket's upper bound (conservative: the true value is at
// most the reported one). Returns 0 for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	total := histCount(h)
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen > rank {
			// Buckets[i+1] is the bucket's upper bound; the last bucket's
			// can be +Inf, where its lower bound is the honest answer.
			ub := h.Buckets[i+1]
			if ub > 1e300 || ub != ub {
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// formatSeconds renders a pause value without exponent surprises and
// never as Inf/NaN (which the strict scraper would still parse, but
// dashboards would not thank us for).
func formatSeconds(v float64) string {
	if v != v || v > 1e300 || v < 0 {
		v = 0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
