package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// small returns the workloads shrunk to test size: the same code paths,
// a few hundred cycles each.
func small() map[string]workload {
	return map[string]workload{
		"busy4096": &cycleSpec{
			name: "busy4096", k: 8, rate: 0.05, flits: 2, window: 2,
			warmup: 200, refSpan: 64, sample: 64, minSamples: 2,
			setupReps: 2, snapReps: 2, forkReps: 2,
		},
		"idle4096": &cycleSpec{
			name: "idle4096", k: 8, rate: 0.05, flits: 2, window: 2, rowOnly: true,
			warmup: 200, refSpan: 64, sample: 256, minSamples: 2,
			setupReps: 2, snapReps: 2, forkReps: 2,
		},
		"observed1024": &cycleSpec{
			name: "observed1024", k: 8, rate: 0.05, flits: 2, window: 2, observed: true,
			warmup: 256, refSpan: 64, sample: 128, minSamples: 2,
			setupReps: 2, snapReps: 2, forkReps: 2,
		},
		"sweep16": &sweepSpec{
			name: "sweep16", k: 4, rates: sweepRates, replicas: 2, flits: 2,
			warmup: 100, measure: 50, knee: 0.40, minCampaigns: 1,
			setupReps: 2, snapReps: 2, forkReps: 2,
		},
	}
}

func opts(t *testing.T, seed int64, trace bool) options {
	return options{seed: seed, seconds: time.Millisecond, trace: trace, outDir: t.TempDir()}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var a, c []string
		for _, d := range declared {
			a = append(a, d.Name+" "+d.Unit)
		}
		for _, d := range defs {
			c = append(c, d.name+" "+d.unit)
		}
		sort.Strings(a)
		sort.Strings(c)
		if strings.Join(a, ",") != strings.Join(c, ",") {
			t.Errorf("%s metrics:\n  BENCHMARK.json %v\n  program        %v", kind, a, c)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}

// resultLine is the JSON object on the last line of the output.
type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runSmall(t *testing.T, name string, w workload, o options) resultLine {
	t.Helper()
	res, err := execute(name, w, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, name, o, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: checks failed (attempted %d, failed %d):\n%s", name, out.Attempted, out.Failed, buf.String())
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, w := range small() {
		for _, trace := range []bool{false, true} {
			o := opts(t, 1, trace)
			out := runSmall(t, name, w, o)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestChecksPassOnAnotherSeed(t *testing.T) {
	for name, w := range small() {
		runSmall(t, name, w, opts(t, 2, false))
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	w := small()["busy4096"]
	a, err := execute("busy4096", w, opts(t, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute("busy4096", w, opts(t, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.digest == "" {
		t.Fatalf("digests %q and %q differ for one seed", a.digest, b.digest)
	}
}

func TestCorruptForkImageFailsChecks(t *testing.T) {
	spec := *small()["busy4096"].(*cycleSpec)
	spec.tamper = func(img []byte) { img[len(img)/2] ^= 0x40 }
	res, err := execute("busy4096", &spec, opts(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || !strings.Contains(strings.Join(res.problems, "\n"), "fork") {
		t.Fatalf("a corrupted image passed the fork check: %v", res.problems)
	}
}

func TestDroppedSendsFailChecks(t *testing.T) {
	spec := *small()["busy4096"].(*cycleSpec)
	spec.dropEvery = 50
	res, err := execute("busy4096", &spec, opts(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("dropped sends passed the checks (failed=%d): %v", res.failed, res.problems)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// (q3-q1)/median with statistics.quantiles(xs, n=4), computed in Python.
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2}, 1},
		{[]float64{5, 1, 4, 2, 3}, 1},
		{[]float64{10, 1, 7, 3}, 1.55},
	} {
		if got := spread(c.xs); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
