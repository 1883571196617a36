package network

import (
	"math/bits"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
)

// This file holds the network's per-cycle phase bodies and the
// quiescence worklists that keep them proportional to active work.
//
// The five-phase staging discipline means that, within a phase, a router
// only reads neighbor state written in a *previous* phase: link pipes are
// filled in linkarb and drained in deliver, credits are queued in
// switcharb and delivered in deliver. Every cross-component effect of a
// phase — a credit returning upstream, a recorder update, a link waking —
// is therefore applied inline, in walk order, with nothing to stage.
//
// Routers, links and ports join their worklist when work arrives (flit
// acceptance, a send onto the wires or a credit handed back, a queued
// injection or loopback) and leave it at their phase's sweep once they
// have nothing left, so fully quiescent regions of the die cost nothing
// per cycle. Every flit-recycling component (router, link, port) shares
// the network's one flit.Pool.

// FlitsOutstanding reports pool-allocated flits currently alive anywhere
// in the network. A drained network must report zero.
func (n *Network) FlitsOutstanding() int64 { return n.pool.Outstanding() }

// FlitGets reports how many flits the network has drawn from its pool,
// so leak checks can tell a balanced pool from an unused one.
func (n *Network) FlitGets() int64 { return n.pool.Gets() }

// activate puts a tile's router on the router worklist. Safe to call
// repeatedly; the onList bit dedupes.
func (n *Network) activate(tile int) {
	if n.onList[tile] {
		return
	}
	n.onList[tile] = true
	n.active = append(n.active, tile)
}

// acceptAt hands a flit to a tile's VC router and keeps the worklist
// current.
func (n *Network) acceptAt(tile int, f *flit.Flit, from route.Dir) {
	n.routers[tile].AcceptFlit(f, from)
	n.activate(tile)
}

// activateLink puts a link on the link worklist and catches its
// utilization window up over the skipped idle cycles. Safe to call
// repeatedly; the linkOn bit dedupes.
func (n *Network) activateLink(i int32) {
	if n.linkOn[i] {
		return
	}
	n.linkOn[i] = true
	le := &n.links[i]
	if gap := n.utilTicks - le.tickedTo; gap > 0 {
		le.l.Util.AddCycles(gap)
	}
	le.tickedTo = n.utilTicks
	n.activeLinks = append(n.activeLinks, i)
}

// deliver advances the links by one cycle: flits complete their
// traversal into the receiving routers, credits complete their reverse
// traversal into the sending routers. It then advances utilTicks, the
// count of completed delivery phases, which is the reference clock for
// gated links' frozen utilization windows.
func (n *Network) deliver(now sim.Cycle) {
	if n.linkGated {
		n.deliverGated()
	} else {
		n.deliverAll(now)
	}
	n.utilTicks++
}

// deliverGated is deliver over the link worklist: only links with
// traffic (or credits) in flight are visited, and a link that has gone
// idle leaves the list — its utilization window is frozen at tickedTo
// and caught up on reactivation. Quiescent regions therefore cost nothing
// in the delivery phase, not even the idle tick.
func (n *Network) deliverGated() {
	keep := n.activeLinks[:0]
	for _, i := range n.activeLinks {
		le := &n.links[i]
		if le.l.Idle() {
			// This cycle's idle tick is skipped along with the link;
			// utilTicks has not yet counted this cycle, so the frozen
			// window ends exactly here.
			n.linkOn[i] = false
			le.tickedTo = n.utilTicks
			continue
		}
		keep = append(keep, i)
		if n.cfg.ElasticLinks {
			n.deliverElastic(le)
			continue
		}
		f, credits := le.l.Deliver()
		if len(credits) > 0 {
			n.routers[le.from].HandleCredits(le.dir, credits)
		}
		if f != nil {
			n.acceptAt(le.to, f, le.dir.Opposite())
		}
	}
	n.activeLinks = keep
}

// deliverAll is the full-scan deliver for configurations that cannot use
// the link worklist (see Network.linkGated).
func (n *Network) deliverAll(now sim.Cycle) {
	for i := range n.links {
		le := &n.links[i]
		if le.l.Idle() {
			// Active-set skip: nothing in flight in either direction.
			// Only the utilization counter needs its idle tick.
			le.l.Util.Tick(0)
			if n.wdCredit != nil {
				n.wdCredit[i] = false
			}
			continue
		}
		if n.cfg.ElasticLinks {
			n.deliverElastic(le)
			continue
		}
		f, credits := le.l.Deliver()
		if n.wdCredit != nil {
			n.wdCredit[i] = len(credits) > 0
		}
		if !n.cfg.Deflect && len(credits) > 0 {
			n.routers[le.from].HandleCredits(le.dir, credits)
		}
		if f != nil {
			if n.traceLinks && f.Type.IsHead() {
				n.probe.Links[i].TraceHead(int64(now), f.PacketID)
			}
			if n.cfg.Deflect {
				n.defls[le.to].AcceptFlit(f, le.dir.Opposite())
			} else {
				n.acceptAt(le.to, f, le.dir.Opposite())
			}
		}
	}
}

// deliverElastic advances one elastic channel: the head flit moves into
// the receiving router only when that router can take it.
func (n *Network) deliverElastic(le *linkEntry) {
	to, in := n.routers[le.to], le.dir.Opposite()
	f := le.l.DeliverElastic(func(f *flit.Flit) bool {
		return to.CanAccept(in, f.VC)
	})
	if f != nil {
		n.acceptAt(le.to, f, in)
	}
}

// routePhase runs route computation over the router worklist, sweeping
// out routers that have gone empty. Between this sweep and the next cycle
// only flit acceptance grows a router's occupancy, and acceptance
// re-activates, so the list always covers every non-empty router.
func (n *Network) routePhase(now sim.Cycle) {
	keep := n.active[:0]
	for _, tile := range n.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			n.onList[tile] = false
			continue
		}
		keep = append(keep, tile)
		r.RouteCompute(now)
	}
	n.active = keep
}

// linkarb runs link arbitration over the router worklist. Under link
// gating the routers' packed sent masks are consumed here to wake the
// links that just received a flit.
func (n *Network) linkarb(now sim.Cycle) {
	for _, tile := range n.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.LinkArbitrate(now)
		if !n.linkGated {
			continue
		}
		for m := r.SentOutputs(); m != 0; m &= m - 1 {
			if li := n.outLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]; li >= 0 {
				n.activateLink(li)
			}
		}
	}
}

// switcharb runs switch arbitration (plus the deflection routers'
// combined arbitration). Under link gating the routers' packed credited
// masks are consumed here to wake the links carrying the freed-slot
// credits upstream.
func (n *Network) switcharb(now sim.Cycle) {
	for _, tile := range n.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.SwitchArbitrate(now)
		if !n.linkGated {
			continue
		}
		for m := r.CreditedInputs(); m != 0; m &= m - 1 {
			if li := n.inLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]; li >= 0 {
				n.activateLink(li)
			}
		}
	}
	for _, d := range n.defls {
		d.Arbitrate(now)
	}
}

// eject delivers ejected flits to the ports: reassembly, abort handling,
// and matured loopbacks. Under port gating only routers on the worklist
// can hold eject-queue flits (the queue counts toward occupancy), and
// loopbacks are tracked on their own worklist, so quiescent tiles are
// never visited. A tile with both still sees its ejected flits before its
// loopbacks, exactly as the full scan orders them.
func (n *Network) eject(now sim.Cycle) {
	if n.portGated {
		for _, tile := range n.active {
			if ejected := n.routers[tile].Eject(); len(ejected) > 0 {
				n.ports[tile].receive(ejected, now)
			}
		}
		keep := n.loopList[:0]
		for _, t := range n.loopList {
			p := n.ports[t]
			p.deliverLoopbacks(now)
			if len(p.loopback) == 0 {
				p.onLoop = false
				continue
			}
			keep = append(keep, t)
		}
		n.loopList = keep
		return
	}
	for tile, p := range n.ports {
		var ejected []*flit.Flit
		if n.cfg.Deflect {
			ejected = n.defls[tile].Eject()
		} else {
			ejected = n.routers[tile].Eject()
		}
		if len(ejected) > 0 {
			p.receive(ejected, now)
		}
		p.deliverLoopbacks(now)
	}
}

// clientsTick is the client phase: packet generation draws globally
// ordered packet ids (which appear in traces and goldens), so Tick runs
// in tile order. The dense clientTiles list (ascending, maintained by
// AttachClient) keeps the walk proportional to attached clients, not
// tiles.
func (n *Network) clientsTick(now sim.Cycle) {
	for _, tile := range n.clientTiles {
		n.clients[tile].Tick(now, n.ports[tile])
	}
}

// pumpPhase drives injection arbitration for the ports. Under port
// gating only ports with queued or in-progress injections are on the
// worklist; a port whose work has drained leaves it and rejoins on the
// next Send.
func (n *Network) pumpPhase(now sim.Cycle) {
	if !n.portGated {
		for _, p := range n.ports {
			p.pump(now)
		}
		return
	}
	keep := n.pumpList[:0]
	for _, t := range n.pumpList {
		p := n.ports[t]
		if p.injWork() == 0 {
			p.onPump = false
			continue
		}
		keep = append(keep, t)
		p.pump(now)
	}
	n.pumpList = keep
}
