package netsim

// Sharded conservative-lookahead execution. The simulation's nodes are
// partitioned into shards at link boundaries; each shard owns a private
// Engine (timing wheel) plus private trace buffers and a private packet
// free list, so a shard's window executes with zero shared mutable state.
//
// Synchronization is classic conservative PDES with lookahead equal to the
// per-hop propagation delay L = propDelayNs: any event one shard can
// cause on another travels a link, so it lands at least L after the moment
// it was sent. The coordinator therefore runs all shards concurrently over
// the window [H, H+L), collects the link events they emitted for other
// shards (per-destination outboxes), delivers them at the barrier while
// every engine is quiescent, and advances H. Every event that executes in
// a window was already in its engine before the window started — shards
// never need to peek at each other mid-window.
//
// Determinism does not depend on the barrier at all: link events carry
// their (directed-link id, per-link sequence) total-order key from the
// sending port (see engine.go), so the destination wheel dispatches them
// in exactly the order a serial run would have. A 1-shard run takes the
// inline path with no goroutines and is the determinism baseline; the
// serial-vs-parallel trace tests in shard_test.go pin byte-identical
// recorded traces at every shard count.

import (
	"cmp"
	"slices"
)

// shard is one event-engine domain: a set of nodes whose events execute on
// a private engine, plus everything that engine's handlers mutate.
type shard struct {
	idx int
	net *Network
	eng *Engine

	// nodes owned by this shard (diagnostics, partition tests).
	nodes []NodeID
	// swPorts lists the shard's switch egress ports in (node, port) order,
	// for queue sampling.
	swPorts []*port

	// pktFree recycles packets that ended their journey on this shard;
	// a packet crossing shards is adopted by the destination's free list.
	pktFree []*Packet
	// txNs[size] is the serialization time of a size-byte packet, 0 until
	// a packet of that size first starts.
	txNs []int64

	// Private trace buffers, merged canonically by Network.finalize; ce
	// is filled only on a recorded network (Record's CE tap).
	ce        chunkLog[CERecord]
	dropLog   []DropRecord
	episodes  []Episode
	samples   map[PortID][]QueueSample
	flowDrops []int64 // per-flow drop counts (any shard's switch can drop any flow)

	// outbox[d] stages link events bound for shard d during a window; the
	// coordinator drains it at the barrier.
	outbox [][]event

	// Worker plumbing (multi-shard runs only).
	work chan int64
	ran  int // events dispatched, accumulated across windows
}

// txTime returns the serialization time of a size-byte packet at the link
// rate, at least 1 ns, computing each size's once.
func (sh *shard) txTime(size int32) int64 {
	for int(size) >= len(sh.txNs) {
		sh.txNs = append(sh.txNs, 0)
	}
	if sh.txNs[size] == 0 {
		sh.txNs[size] = max(int64(float64(size)*8/sh.net.cfg.LinkBps*1e9), 1)
	}
	return sh.txNs[size]
}

// newPacket draws from the shard's free list or allocates. The caller must
// overwrite every field (assign a full Packet literal).
func (sh *shard) newPacket() *Packet {
	if k := len(sh.pktFree); k > 0 {
		p := sh.pktFree[k-1]
		sh.pktFree = sh.pktFree[:k-1]
		sh.net.stats.FreeHit.Inc()
		return p
	}
	sh.net.stats.FreeMiss.Inc()
	return new(Packet)
}

// recycle returns a packet whose journey ended to the shard's free list.
func (sh *shard) recycle(p *Packet) { sh.pktFree = append(sh.pktFree, p) }

// partitionNodes assigns every node to one of n shards, deterministically.
// Hosts split into contiguous equal blocks; switches join the shard owning
// the majority of their already-assigned neighbors, iterated to a fixed
// point so assignment flows up the tiers (edge switches adopt their hosts'
// shard, aggregations their pod's edges). Switches that never see a unique
// majority — fat-tree cores, leaf-spine spines, anything equidistant from
// everyone — spread round-robin by node index for load balance.
func partitionNodes(t *Topology, n int) []int32 {
	out := make([]int32, t.Nodes())
	for v := range out {
		out[v] = -1
	}
	for h := 0; h < t.Hosts; h++ {
		out[h] = int32(h * n / t.Hosts)
	}
	counts := make([]int, n)
	for {
		progressed := false
		for v := t.Hosts; v < t.Nodes(); v++ {
			if out[v] >= 0 {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, p := range t.Ports[v] {
				if s := out[p.Peer]; s >= 0 {
					counts[s]++
				}
			}
			best, bestCount, unique := -1, 0, false
			for s, c := range counts {
				switch {
				case c > bestCount:
					best, bestCount, unique = s, c, true
				case c == bestCount && c > 0:
					unique = false
				}
			}
			if unique {
				out[v] = int32(best)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for v := range out {
		if out[v] < 0 {
			out[v] = int32(v % n)
		}
	}
	return out
}

// propDelayNs is every link's propagation latency (§7.2: 1 µs a hop), and
// so the lookahead of the windowed loop.
const propDelayNs = 1000

// routeArrive sends pkt across port p's link: it arrives at the peer one
// propagation delay later, stamped with p's directed-link order key. Peers
// on the sending shard enter the local wheel immediately; remote peers go
// to the outbox for barrier delivery.
func (n *Network) routeArrive(p *port, pkt *Packet) {
	at, seq := p.sh.eng.Now()+propDelayNs, nextSeq(&p.lseq)
	if dst := n.shards[n.shardOf[p.peer]]; dst != p.sh {
		p.sh.outbox[dst.idx] = append(p.sh.outbox[dst.idx], event{
			at: at, seq: seq, kind: evArrive, lkey: p.lkey, node: int32(p.peer), pkt: pkt,
		})
	} else {
		p.sh.eng.pushPacket(evArrive, at, p.lkey, seq, nil, pkt, p.peer)
	}
}

// runParallel executes the windowed barrier loop over all shards. Workers
// are persistent goroutines; the coordinator delivers outboxes and decides
// each window while every engine is quiescent. lockstep (tests) runs the
// same loop with the shards executed inline in index order instead —
// useful for pinning the machinery without goroutine scheduling in play.
func (n *Network) runParallel(until int64) int {
	var workerDone chan *shard
	if !n.lockstep {
		workerDone = make(chan *shard, len(n.shards))
		for _, sh := range n.shards {
			sh.work = make(chan int64, 1)
			go func(sh *shard) {
				for end := range sh.work {
					sh.ran += sh.eng.Run(end)
					workerDone <- sh
				}
			}(sh)
		}
		defer func() {
			for _, sh := range n.shards {
				close(sh.work)
			}
		}()
	}

	h := int64(0)
	for {
		// Deliver the link events the previous window staged. All engines
		// are quiescent, and every event is at least one window ahead.
		for _, src := range n.shards {
			for d := range src.outbox {
				box := src.outbox[d]
				if len(box) == 0 {
					continue
				}
				dst := n.shards[d].eng
				for i := range box {
					dst.pushLink(box[i])
					box[i] = event{} // release packet references
				}
				src.outbox[d] = box[:0]
			}
		}
		// Find the earliest pending event anywhere; skip idle spans.
		next, any := int64(0), false
		for _, sh := range n.shards {
			if at, ok := sh.eng.NextEventAt(); ok && (!any || at < next) {
				next, any = at, true
			}
		}
		if !any || next > until {
			break
		}
		if next > h {
			h = next
		}
		end := h + propDelayNs - 1
		if end > until {
			end = until
		}
		if n.lockstep {
			for _, sh := range n.shards {
				sh.ran += sh.eng.Run(end)
			}
		} else {
			for _, sh := range n.shards {
				sh.work <- end
			}
			for range n.shards {
				<-workerDone
			}
		}
		h = end + 1
	}
	total := 0
	for _, sh := range n.shards {
		total += sh.ran
		sh.ran = 0
	}
	return total
}

// finalize closes still-open episodes and merges the per-shard trace
// buffers into the canonical trace. The stable sorts put every log in an
// order that is a pure function of the traffic: CELog keys are unique
// because one port finishes at most one packet per nanosecond, and DropLog
// adds the flow id (a flow's packets reach a given port serially). Serial
// and sharded runs converge on identical bytes.
func (n *Network) finalize(untilNs int64) {
	for v := n.topo.Hosts; v < n.topo.Nodes(); v++ {
		for _, p := range n.ports[v] {
			if p.epActive {
				n.finishEpisode(p, untilNs)
			}
		}
	}
	t := n.trace
	for h := range n.hostLogs {
		t.HostPackets[h] = joinLogs(t.HostPackets[h], &n.hostLogs[h])
	}
	ces := make([]*chunkLog[CERecord], len(n.shards))
	for i, sh := range n.shards {
		ces[i] = &sh.ce
		t.DropLog = append(t.DropLog, sh.dropLog...)
		sh.dropLog = sh.dropLog[:0]
		t.Episodes = append(t.Episodes, sh.episodes...)
		sh.episodes = sh.episodes[:0]
		for id, d := range sh.flowDrops {
			if d != 0 {
				t.Flows[id].Drops += d
				sh.flowDrops[id] = 0
			}
		}
		// A port belongs to one shard, so its series moves over as is.
		for id, ss := range sh.samples {
			t.QueueSamples[id] = ss
			delete(sh.samples, id)
		}
	}
	t.CELog = joinLogs(t.CELog, ces...)
	slices.SortStableFunc(t.CELog, func(a, b CERecord) int {
		return cmp.Or(cmp.Compare(a.Ns, b.Ns), cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Port, b.Port))
	})
	slices.SortStableFunc(t.DropLog, func(a, b DropRecord) int {
		return cmp.Or(cmp.Compare(a.Ns, b.Ns), cmp.Compare(a.Switch, b.Switch),
			cmp.Compare(a.Port, b.Port), cmp.Compare(a.FlowID, b.FlowID))
	})
	slices.SortStableFunc(t.Episodes, func(a, b Episode) int {
		return cmp.Or(cmp.Compare(a.EndNs, b.EndNs), cmp.Compare(a.Port.Switch, b.Port.Switch),
			cmp.Compare(a.Port.Port, b.Port.Port), cmp.Compare(a.StartNs, b.StartNs))
	})
}
