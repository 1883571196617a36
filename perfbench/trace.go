package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// tracer times the layers of a simulated cycle from outside the
// simulator. It never changes what is simulated: its phases only read
// the clock, and its client wrappers delegate every call.
//
//   - A wrapper on the first and on the last client tile brackets the
//     serial clients phase (traffic.Generator.Tick).
//   - A marker phase, added with Kernel().AddPhase just before each
//     observer is attached, stamps the start of that observer's phase.
//   - An end phase, added last, closes the cycle.
//
// The fabric time is the rest of the cycle: deliver, route, link and
// switch arbitration, eject and pump, the probe's own sampling phase,
// and the kernel's dispatch. While disabled, the phases return at once,
// so untraced samples of a traced run pay one call per phase per cycle.
type tracer struct {
	enabled bool
	base    time.Time

	cycleStart, clientsStart, clientsEnd int64
	obsNames                             []string
	marks                                []int64

	// Totals over traced cycles.
	cycles              int64
	fabricNs, clientsNs int64
	obsNs, obsMaxNs     []int64

	// keyEvery, when positive, counts traced cycles that end on a
	// flight-recorder keyframe.
	keyEvery  int64
	keyframes int64

	// Every spanEvery-th traced cycle keeps its spans and samples the
	// flits in flight.
	spanEvery     int64
	spans         []span
	occupancy     func() int
	occSum, occN  int64
	wrapped, orig map[int]network.Client
}

// span is one timed interval. Spans of one cycle share the cycle number
// as their id; parent names the enclosing span ("" for the cycle).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(spanEvery int64) *tracer {
	if spanEvery < 1 {
		spanEvery = 1
	}
	return &tracer{base: time.Now(), spanEvery: spanEvery}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// markObserver adds the marker phase for the observer about to be
// attached; call it immediately before the observer's Attach.
func (t *tracer) markObserver(n *network.Network, name string) {
	i := len(t.obsNames)
	t.obsNames = append(t.obsNames, name)
	t.marks = append(t.marks, 0)
	t.obsNs = append(t.obsNs, 0)
	t.obsMaxNs = append(t.obsMaxNs, 0)
	n.Kernel().AddPhase("perfbench.mark."+name, func(sim.Cycle) {
		if t.enabled {
			t.marks[i] = t.now()
		}
	})
}

// finish adds the end phase and the client wrappers. Call it after every
// observer is attached. Clients must implement network.StatefulClient,
// and the wrappers do too, so the network stays checkpointable (the
// flight recorder's keyframes keep working under tracing).
func (t *tracer) finish(n *network.Network, tiles []int, clients []network.StatefulClient) {
	n.Kernel().AddPhase("perfbench.end", t.endCycle)
	t.occupancy = n.Occupancy
	t.wrapped = map[int]network.Client{}
	t.orig = map[int]network.Client{}
	first, last := tiles[0], tiles[len(tiles)-1]
	for i, tile := range tiles {
		if tile != first && tile != last {
			continue
		}
		t.orig[tile] = clients[i]
		t.wrapped[tile] = &timedClient{StatefulClient: clients[i], t: t, first: tile == first, last: tile == last}
	}
}

// begin enables timing for the next cycles on n.
func (t *tracer) begin(n *network.Network) {
	for tile, c := range t.wrapped {
		n.AttachClient(tile, c)
	}
	t.enabled = true
	t.cycleStart = t.now()
}

// end disables timing and restores the unwrapped clients.
func (t *tracer) end(n *network.Network) {
	t.enabled = false
	for tile, c := range t.orig {
		n.AttachClient(tile, c)
	}
}

func (t *tracer) endCycle(now sim.Cycle) {
	if !t.enabled {
		return
	}
	end := t.now()
	next := end
	if len(t.marks) > 0 {
		next = t.marks[0]
	}
	t.fabricNs += (t.clientsStart - t.cycleStart) + (next - t.clientsEnd)
	t.clientsNs += t.clientsEnd - t.clientsStart
	for i, m := range t.marks {
		stop := end
		if i+1 < len(t.marks) {
			stop = t.marks[i+1]
		}
		d := stop - m
		t.obsNs[i] += d
		if d > t.obsMaxNs[i] {
			t.obsMaxNs[i] = d
		}
	}
	t.cycles++
	if t.keyEvery > 0 && (now+1)%t.keyEvery == 0 {
		t.keyframes++
	}
	if (now+1)%t.spanEvery == 0 {
		t.spans = append(t.spans,
			span{now, "cycle", "", t.cycleStart, end},
			span{now, "fabric.pre", "cycle", t.cycleStart, t.clientsStart},
			span{now, "clients", "cycle", t.clientsStart, t.clientsEnd},
			span{now, "fabric.post", "cycle", t.clientsEnd, next})
		for i, m := range t.marks {
			stop := end
			if i+1 < len(t.marks) {
				stop = t.marks[i+1]
			}
			t.spans = append(t.spans, span{now, t.obsNames[i], "cycle", m, stop})
		}
		t.occSum += int64(t.occupancy())
		t.occN++
	}
	// The bookkeeping above belongs to no layer: the next cycle starts
	// after it.
	t.cycleStart = t.now()
}

// perCycleUs converts a nanosecond total over the traced cycles to
// microseconds per cycle.
func (t *tracer) perCycleUs(ns int64) float64 {
	if t.cycles == 0 {
		return 0
	}
	return float64(ns) / float64(t.cycles) / 1e3
}

// observerUs reports the named observer's mean and maximum microseconds
// per cycle (0, 0 when it is not attached).
func (t *tracer) observerUs(name string) (mean, max float64) {
	for i, o := range t.obsNames {
		if o == name {
			return t.perCycleUs(t.obsNs[i]), float64(t.obsMaxNs[i]) / 1e3
		}
	}
	return 0, 0
}

// writeSpans writes the kept spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedClient wraps a client to stamp the start (first tile) or the end
// (last tile) of the clients phase.
type timedClient struct {
	network.StatefulClient
	t           *tracer
	first, last bool
}

func (c *timedClient) Tick(now int64, p *network.Port) {
	if c.first {
		c.t.clientsStart = c.t.now()
	}
	c.StatefulClient.Tick(now, p)
	if c.last {
		c.t.clientsEnd = c.t.now()
	}
}
