package network

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// ckptClient is a deterministic random-traffic client with checkpointable
// state, standing in for the traffic package (which would be an import
// cycle here).
type ckptClient struct {
	tile    int
	rng     *rand.Rand
	seed    int64
	draw    uint64
	sent    int64
	stopped bool
	payload int // bytes per packet; 0 sends 2-byte single-flit packets
}

func newCkptClient(tile int, seed int64) *ckptClient {
	c := &ckptClient{tile: tile, seed: seed}
	c.rng = rand.New(rand.NewSource(seed))
	return c
}

func (c *ckptClient) Tick(now int64, p *Port) {
	p.Deliveries()
	if c.stopped {
		return
	}
	c.draw++
	if c.rng.Float64() < 0.08 {
		dst := (c.tile + 1 + int(c.draw)%15) % 16
		if dst != c.tile {
			payload := []byte{byte(now), byte(c.tile)}
			if c.payload > 0 {
				payload = make([]byte, c.payload)
			}
			if _, err := p.Send(dst, payload, flit.VCMask(0xFF), 0); err == nil {
				c.sent++
			}
		}
	}
}

func (c *ckptClient) SaveState(e *checkpoint.Encoder) {
	e.U64(c.draw)
	e.I64(c.sent)
}

func (c *ckptClient) RestoreState(d *checkpoint.Decoder) {
	c.draw = d.U64()
	c.sent = d.I64()
	c.rng = rand.New(rand.NewSource(c.seed))
	for i := uint64(0); i < c.draw; i++ {
		c.rng.Float64()
	}
}

func buildCkptNet(t *testing.T, watchdog int) *Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := router.DefaultConfig(0)
	n, err := New(Config{
		Topo: topo, Router: rc, Seed: 42, Warmup: 50, Watchdog: watchdog,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 16; tile++ {
		n.AttachClient(tile, newCkptClient(tile, 7*int64(tile)+1))
	}
	return n
}

// TestCheckpointRoundTrip saves mid-run, restores into a fresh network,
// and requires the resumed run's state — as witnessed by a second
// checkpoint — to be byte-identical to the uninterrupted run's. Its one
// case is the sequential cycle loop, shards=1.
func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		ref := buildCkptNet(t, 0)
		ref.Run(300)
		snap, err := ref.SaveCheckpoint(99, 300)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(300)
		want, err := ref.SaveCheckpoint(99, 600)
		if err != nil {
			t.Fatal(err)
		}

		f, err := checkpoint.Parse(snap)
		if err != nil {
			t.Fatal(err)
		}
		if f.Cycle != 300 || f.ConfigHash != 99 {
			t.Fatalf("header = (cycle %d, hash %d), want (300, 99)", f.Cycle, f.ConfigHash)
		}
		res := buildCkptNet(t, 0)
		if err := res.RestoreCheckpoint(f); err != nil {
			t.Fatal(err)
		}
		if got := res.Kernel().Now(); got != 300 {
			t.Fatalf("restored clock = %d, want 300", got)
		}
		res.Run(300)
		got, err := res.SaveCheckpoint(99, 600)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resumed state diverges from the uninterrupted run (snapshot %d vs %d bytes)", len(got), len(want))
		}
		if s := res.Recorder().String(); s != ref.Recorder().String() {
			t.Fatalf("recorder diverged:\nresumed  %s\nstraight %s", s, ref.Recorder().String())
		}
	})
}

// TestCheckpointRejectsMismatchedNetwork requires structural mismatches to
// surface as errors, not corruption.
func TestCheckpointRejectsMismatchedNetwork(t *testing.T) {
	n := buildCkptNet(t, 0)
	n.Run(100)
	snap, err := n.SaveCheckpoint(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A watchdog-armed network has extra state the snapshot lacks.
	other := buildCkptNet(t, 64)
	if err := other.RestoreCheckpoint(f); err == nil {
		t.Fatal("restore into a watchdog-armed network succeeded; want presence-mismatch error")
	}
}

// TestCheckpointRefusesStatelessClient requires Save to reject clients it
// cannot serialise rather than silently dropping their state.
func TestCheckpointRefusesStatelessClient(t *testing.T) {
	n := buildCkptNet(t, 0)
	n.AttachClient(3, ClientFunc(func(now int64, p *Port) { p.Deliveries() }))
	if _, err := n.SaveCheckpoint(1, 0); err == nil {
		t.Fatal("SaveCheckpoint accepted a non-checkpointable client")
	}
}

// TestCheckpointOutstandingFlits checks the pool accounting balances
// after a restore: every live flit was drawn through a pool Get.
func TestCheckpointOutstandingFlits(t *testing.T) {
	n := buildCkptNet(t, 0)
	n.Run(300)
	snap, err := n.SaveCheckpoint(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	res := buildCkptNet(t, 0)
	if err := res.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 16; tile++ {
		c := res.clients[tile].(*ckptClient)
		c.StopSending()
	}
	if !res.Drain(20000) {
		t.Fatal("restored network failed to drain")
	}
	if out := res.FlitsOutstanding(); out != 0 {
		t.Fatalf("FlitsOutstanding = %d after drain, want 0", out)
	}
}

// TestForkMidInjectionDrains forks a network while multi-flit injections
// are part-way into the network and drains the fork: the flits already
// sent live in routers and links, so the fork must not also re-create
// them for the port, or its pool never balances.
func TestForkMidInjectionDrains(t *testing.T) {
	build := func() *Network {
		n := buildCkptNet(t, 0)
		for tile := 0; tile < 16; tile++ {
			n.clients[tile].(*ckptClient).payload = 4 * flit.DataBytes
		}
		return n
	}
	src := build()
	src.Run(300)
	midway := 0
	for _, p := range src.ports {
		for _, in := range p.active {
			if in != nil && in.next > 0 {
				midway++
			}
		}
	}
	if midway == 0 {
		t.Fatal("no injection in progress at the fork point; the test is vacuous")
	}
	img, err := src.Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	fork := build()
	if err := fork.Fork(img, 3); err != nil {
		t.Fatal(err)
	}
	again, err := fork.Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(img) {
		t.Fatal("snapshot of the fresh fork differs from the image it was forked from")
	}
	for _, n := range []*Network{src, fork} {
		for tile := 0; tile < 16; tile++ {
			n.clients[tile].(*ckptClient).StopSending()
		}
		if !n.Drain(20000) {
			t.Fatal("network failed to drain")
		}
	}
	if out := fork.FlitsOutstanding(); out != 0 {
		t.Fatalf("fork: FlitsOutstanding = %d after drain, want 0", out)
	}
	if out := src.FlitsOutstanding(); out != 0 {
		t.Fatalf("original: FlitsOutstanding = %d after drain, want 0", out)
	}
	if fork.Recorder().String() != src.Recorder().String() {
		t.Fatalf("fork diverged:\nfork     %s\noriginal %s", fork.Recorder().String(), src.Recorder().String())
	}
}

// StopSending halts packet generation so the network can drain.
func (c *ckptClient) StopSending() { c.stopped = true }
