package core

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/power"
)

// This file is the network arena: a per-shape pool of fully built
// networks that Run (and the replicated sweep runners) re-initialize in
// place with network.Reset instead of rebuilding from scratch. Building
// a network allocates every router, VC buffer, link pipeline, and port
// pool; for a campaign that runs hundreds of points over one shape, that
// construction cost — and the allocator and GC pressure behind it — is
// pure overhead after the first point. A pooled network is Reset on
// acquire, so a dirty release (a run abandoned mid-flight by the resume
// test mode, say) can never leak state into the next run.
//
// Only runs whose attachments are plain generators are pooled: meters,
// probes, deflection state, physical wire models, and OnNetwork hooks
// tie a network to one run's identity (network.Resettable refuses them),
// so those configurations fall back to a fresh build per run.

// arenaMaxPerKey caps how many idle networks one shape retains; beyond
// it, released networks are dropped for the GC. The cap bounds resident
// memory when a highly parallel sweep fans wider than later phases need.
const arenaMaxPerKey = 32

var arena struct {
	sync.Mutex
	pools map[string][]*network.Network
}

// arenaKey fingerprints every parameter that shapes a network's
// allocation: topology, radix, router geometry, and link models. Seed,
// warmup, rate, and checkpoint policy are per-run state that
// network.Reset re-establishes.
func arenaKey(p RunParams) string {
	return fmt.Sprintf("%s|k=%d|vc=%d|buf=%d|mode=%d|ct=%v|ns=%v|serdes=%d|elastic=%v|adaptive=%v|wd=%d|ecc=%v",
		p.Topology, p.K, p.NumVCs, p.BufFlits, p.Mode, p.CutThrough, p.NonSpeculative,
		p.SerdesCycles, p.ElasticLinks, p.Adaptive, p.Watchdog, p.ECC)
}

// arenaEligible reports whether a run's network may come from (and
// return to) the arena. The exclusions mirror network.Resettable plus
// the attachments whose lifetime is the run itself (probes, OnNetwork
// observability hooks). A deprecated Shards value other than 0 or 1 takes
// the fresh-build path, where network.New rejects it.
func arenaEligible(p RunParams) bool {
	return !p.Deflect && !p.PhysWires && !p.Metered && p.Probe == nil && p.OnNetwork == nil &&
		(p.Shards == 0 || p.Shards == 1)
}

// acquireNetwork returns a client-less network for p — re-initialized in
// place from the arena when one of the right shape is idle, freshly
// built otherwise — together with its power meter (nil for pooled
// networks; metered runs are never pooled) and a release function that
// parks the network for reuse. release is safe to call exactly once, at
// any point after the run is finished with the network.
func acquireNetwork(p RunParams) (*network.Network, *power.Meter, func(), error) {
	if !arenaEligible(p) {
		n, meter, err := BuildNetwork(p)
		if err != nil {
			return nil, nil, nil, err
		}
		return n, meter, func() {}, nil
	}
	key := arenaKey(p)
	arena.Lock()
	pool := arena.pools[key]
	var n *network.Network
	if len(pool) > 0 {
		n = pool[len(pool)-1]
		pool[len(pool)-1] = nil
		arena.pools[key] = pool[:len(pool)-1]
	}
	arena.Unlock()
	if n != nil {
		if err := n.Reset(p.Seed, p.WarmupCycles); err == nil {
			return n, nil, releaseFunc(key, n), nil
		}
		// A pooled network that refuses Reset is dropped; fall through to
		// a fresh build.
	}
	n, meter, err := BuildNetwork(p)
	if err != nil {
		return nil, nil, nil, err
	}
	return n, meter, releaseFunc(key, n), nil
}

func releaseFunc(key string, n *network.Network) func() {
	return func() {
		if n.Resettable() != nil {
			return
		}
		arena.Lock()
		if arena.pools == nil {
			arena.pools = make(map[string][]*network.Network)
		}
		if len(arena.pools[key]) < arenaMaxPerKey {
			arena.pools[key] = append(arena.pools[key], n)
		}
		arena.Unlock()
	}
}

// DrainArena empties the arena, for tests and benchmarks that need to
// measure cold-build behaviour or release the pooled memory.
func DrainArena() {
	arena.Lock()
	arena.pools = nil
	arena.Unlock()
}
