// Command perfbench is the simulator's benchmark. It runs one workload,
// checks the simulated output, and prints a report followed, on the last
// line of standard output, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced (--trace 0) the metrics are the end-to-end ones; traced
// (--trace 1) they are the per-layer ones. See README.md for the
// workloads, the metrics and how they relate. Run it through run.py,
// which builds it and pins the Go runtime settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
}

// workload runs one named workload into res.
type workload interface {
	run(o options, res *result) error
}

// workloads are the benchmark's workloads at full size.
var workloads = map[string]workload{
	"busy4096": &cycleSpec{
		name: "busy4096", k: 64, rate: 0.01, flits: 2, window: 8,
		warmup: 2000, refSpan: 256, sample: 256, minSamples: 8,
		setupReps: 9, snapReps: 15, forkReps: 9,
	},
	"idle4096": &cycleSpec{
		name: "idle4096", k: 64, rate: 0.01, flits: 2, window: 8, rowOnly: true,
		warmup: 2000, refSpan: 4096, sample: 32768, minSamples: 8,
		setupReps: 15, snapReps: 15, forkReps: 9,
	},
	"observed1024": &cycleSpec{
		name: "observed1024", k: 32, rate: 0.02, flits: 2, window: 8, observed: true,
		warmup: 4096, refSpan: 2048, sample: 4096, minSamples: 3,
		setupReps: 21, snapReps: 41, forkReps: 21,
	},
	"sweep16": &sweepSpec{
		name: "sweep16", k: 16, rates: sweepRates, replicas: 8, flits: 2,
		warmup: 1500, measure: 500, knee: 0.40, minCampaigns: 3,
		setupReps: 31, snapReps: 41, forkReps: 41,
	},
}

// result is what one run found.
type result struct {
	correct           bool
	attempted, failed int64
	problems, notes   []string
	digest            string
	e2e, layer        map[string]float64
}

func (r *result) fail(msg string) {
	r.correct = false
	r.problems = append(r.problems, msg)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3g", x)
	}
	return out
}

// pin fixes every setting a result could otherwise inherit from the host:
// two OS threads for Go code, one simulation shard, one sweep worker.
func pin() {
	runtime.GOMAXPROCS(2)
	core.SetParallelism(1)
	core.SetShards(1)
}

// execute runs the named workload and returns its result.
func execute(name string, w workload, o options) (*result, error) {
	pin()
	res := &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := w.run(o, res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// emit writes the report and the final JSON line.
func emit(w io.Writer, name string, o options, res *result) error {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds.Seconds(), o.trace)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	defs, values := endToEnd, res.e2e
	if o.trace {
		defs, values = perLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{values[d.name], d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "seconds of timed samples")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for span files and flight-recorder dumps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, outDir: *outDir}
	res, err := execute(*name, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *name, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
