package netsim

import (
	"fmt"
	"slices"

	"umon/internal/flowkey"
)

// RED marks ECN-capable packets at switch egress (§7.2: KMin 20 KiB, KMax
// 200 KiB, PMax 0.01): never below KMin, with a probability rising
// linearly to PMax at KMax, always above KMax.
const (
	redKMinBytes = 20 << 10
	redKMaxBytes = 200 << 10
	redPMax      = 0.01
)

// markProb returns the marking probability at queue length q.
func markProb(q int64) float64 {
	switch {
	case q < redKMinBytes:
		return 0
	case q >= redKMaxBytes:
		return 1
	default:
		return redPMax * float64(q-redKMinBytes) / (redKMaxBytes - redKMinBytes)
	}
}

// Config parameterizes a simulation. The fabric's constants (1 µs hops,
// RED, DCQCN, the NIC's inject cap) are the paper's and live next to the
// code that reads them.
type Config struct {
	Topo        *Topology
	LinkBps     float64 // link rate and DCQCN line rate, default 100 Gbps
	BufferBytes int64   // per egress port buffer, default 2 MiB
	Seed        uint64
	// Shards selects how many event-engine domains the simulation runs on.
	// 1 (the default) is the serial engine: one wheel, no goroutines.
	// Larger values partition the topology at link boundaries and run the
	// shards concurrently under conservative lookahead = propDelayNs; the
	// trace is byte-identical at every shard count (see shard.go).
	Shards int
	// Stats, when non-nil, receives operational telemetry (event counts,
	// free-list hit rate, ECN marks, queue high-water marks). Nil — the
	// default — leaves the datapath uninstrumented at zero cost.
	Stats *SimStats
}

// DefaultConfig returns the evaluation configuration on the given topology.
func DefaultConfig(topo *Topology) Config {
	return Config{Topo: topo, LinkBps: 100e9, BufferBytes: 2 << 20, Seed: 1}
}

func (c *Config) fillDefaults() {
	if c.LinkBps <= 0 {
		c.LinkBps = 100e9
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 2 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Topo != nil && c.Shards > c.Topo.Nodes() {
		c.Shards = c.Topo.Nodes()
	}
}

// --- trace records ---

// EgressRecord is one data packet leaving a host NIC: the stream the
// host-side WaveSketch measures.
type EgressRecord struct {
	Ns     int64
	FlowID int32
	Size   int32
	Flow   flowkey.Key
}

// CERecord is one CE-marked packet observed at a switch egress port — the
// raw material of µEvent detection.
type CERecord struct {
	Ns     int64
	Switch int16 // switch index (0-based over switches)
	Port   int16
	FlowID int32
	PSN    uint32
	Size   int32
	Flow   flowkey.Key
}

// DropRecord logs one tail-dropped packet at a switch egress port.
type DropRecord struct {
	Ns     int64
	Switch int16
	Port   int16
	FlowID int32
}

// QueueSample is a periodic queue-length observation of one switch port.
type QueueSample struct {
	Ns    int64
	Bytes int64
}

// PortID names a switch egress port.
type PortID struct {
	Switch int16
	Port   int16
}

// Episode is a ground-truth congestion event: a maximal period during
// which a switch egress queue stayed at or above the episode threshold.
type Episode struct {
	Port     PortID
	StartNs  int64
	EndNs    int64
	MaxBytes int64
	Flows    []int32 // participating flows (enqueued during the episode)
}

// FlowStat summarizes one flow's fate.
type FlowStat struct {
	ID          int32
	Key         flowkey.Key
	Src, Dst    int
	Bytes       int64
	StartNs     int64
	FirstTxNs   int64
	LastRxNs    int64
	RxBytes     int64
	TxBytes     int64
	Drops       int64
	CNPs        int64
	Retransmits int64 // go-back-N segments resent
}

// DurationNs returns the observed active time (first tx → last rx).
func (f *FlowStat) DurationNs() int64 {
	if f.LastRxNs <= f.FirstTxNs {
		return 0
	}
	return f.LastRxNs - f.FirstTxNs
}

// Trace is everything the monitoring experiments consume. The packet logs,
// HostPackets and CELog, and the queue series, QueueSamples, are kept only
// for a network that Record was called on (RunWorkload does); the rest is
// kept for every run. Each packet log ends exact-size (len == cap), so a
// kept Trace holds no room it will not use.
type Trace struct {
	DurationNs   int64
	HostPackets  [][]EgressRecord // indexed by host
	CELog        []CERecord
	Episodes     []Episode
	QueueSamples map[PortID][]QueueSample
	Flows        []FlowStat
	DropLog      []DropRecord
	Events       int // engine events executed
}

// TotalPackets counts the recorded host egress data packets.
func (t *Trace) TotalPackets() int64 {
	var n int64
	for _, h := range t.HostPackets {
		n += int64(len(h))
	}
	return n
}

// --- runtime ---

type port struct {
	owner    NodeID
	index    int
	peer     NodeID
	peerPort int

	// sh is the owning node's shard: every event touching this port
	// executes on its engine.
	sh *shard
	// lkey is the directed-link id of (owner, index) and lseq the number
	// of link events sent through it — together the total-order key that
	// lets a sharded run reproduce the serial dispatch order (engine.go).
	lkey int32
	lseq uint64
	// rng drives this port's RED marking decisions. Per-port streams keep
	// marking deterministic under sharding: a global stream's draw order
	// would depend on the interleaving of unrelated ports.
	rng rngState

	// queue[qhead:] is the FIFO, head first. Dequeuing advances qhead; a
	// drained port restarts at the front of its backing array, and a full
	// one at least half dequeued slides its live packets there, so a port
	// stops allocating once its array fits twice its deepest backlog.
	queue  []*Packet
	qhead  int
	qbytes int64
	busy   bool
	drops  int64

	// Ground-truth episode tracking (switch ports only).
	epActive bool
	epStart  int64
	epMax    int64
	epFlows  map[int32]struct{}
}

// Network is a running simulation.
type Network struct {
	cfg   Config
	topo  *Topology
	ports [][]*port
	hosts []*host
	trace *Trace
	// shards are the event-engine domains (one in serial runs); shardOf
	// maps every node to its shard index. eng aliases shards[0].eng — the
	// whole engine in serial mode, kept as a field because tests and
	// examples schedule custom events through it.
	shards  []*shard
	shardOf []int32
	eng     *Engine
	// lockstep (tests only) makes multi-shard runs execute the windowed
	// loop inline, one shard at a time, instead of on worker goroutines.
	lockstep bool
	// hostLogs are a recorded network's per-host egress logs, each written
	// by its host's shard; finalize joins them into Trace.HostPackets.
	hostLogs []chunkLog[EgressRecord]
	// stats is a value copy of Config.Stats (zero value when absent):
	// every field is a nil-safe telemetry handle, so uninstrumented runs
	// pay one nil check per site.
	stats SimStats
	// OnHostEgress, if set, is invoked for every data packet leaving a
	// host NIC: with OnSwitchCE, the only way the network reports a packet
	// (Record is one subscriber). The callback must not retain pkt beyond
	// the call: the packet continues through the fabric and is recycled on
	// delivery. With Shards > 1 it is invoked concurrently from shard
	// goroutines — one goroutine per host, so per-host state needs no
	// locking, but anything shared does.
	OnHostEgress func(host int, pkt *Packet, now int64)
	// OnSwitchCE, if set, is invoked for every CE-marked packet leaving a
	// switch egress port — the live feed a µMon switch monitor taps. As
	// with OnHostEgress, pkt must not be retained beyond the call, and
	// with Shards > 1 calls arrive concurrently (serialized per switch).
	OnSwitchCE func(sw, port int16, pkt *Packet, now int64)
}

// Record makes the run's Trace log the packets its taps see: every host
// egress data packet into HostPackets and every switch CE egress into
// CELog. It also samples every switch port's queue into QueueSamples. It
// wraps the taps installed so far: install those first, and call it once,
// before Run. A log is written in chunks and joined once (see chunkLog).
// An unrecorded Trace has no packet logs and no queue samples.
func (n *Network) Record() {
	n.trace.QueueSamples = make(map[PortID][]QueueSample)
	n.hostLogs = make([]chunkLog[EgressRecord], n.topo.Hosts)
	onHost, onCE := n.OnHostEgress, n.OnSwitchCE
	n.OnHostEgress = func(h int, pkt *Packet, now int64) {
		n.hostLogs[h].add(EgressRecord{
			Ns: now, FlowID: pkt.FlowID, Size: pkt.Size, Flow: pkt.Flow,
		})
		if onHost != nil {
			onHost(h, pkt, now)
		}
	}
	// CE records go to the switch's shard log, from that shard's
	// goroutine; finalize merges the logs in canonical order.
	n.OnSwitchCE = func(sw, port int16, pkt *Packet, now int64) {
		sh := n.shards[n.shardOf[n.topo.Hosts+int(sw)]]
		sh.ce.add(CERecord{
			Ns: now, Switch: sw, Port: port,
			FlowID: pkt.FlowID, PSN: pkt.PSN, Size: pkt.Size, Flow: pkt.Flow,
		})
		if onCE != nil {
			onCE(sw, port, pkt, now)
		}
	}
}

// A log's chunks start at minChunk records and double up to maxChunk, so
// a short log stays small and a long one wastes less than a chunk.
const (
	minChunk   = 64
	chunkSteps = 6
	maxChunk   = minChunk << chunkSteps
)

// chunkLog is a recorded log written in chunks that never move: each
// record is written once into its chunk, and joinLogs copies it once into
// the final log, where a slice grown by append would copy it about four
// times. Nothing pools the chunks: they are garbage once joined.
type chunkLog[T any] [][]T

func (l *chunkLog[T]) add(r T) {
	k := len(*l) - 1
	if k < 0 || len((*l)[k]) == cap((*l)[k]) {
		*l = append(*l, make([]T, 0, minChunk<<min(len(*l), chunkSteps)))
		k++
	}
	(*l)[k] = append((*l)[k], r)
}

// joinLogs returns dst followed by the records of logs, in order, as one
// slice of exactly their joint length, and empties the logs. With no
// records to add it returns dst as it is.
func joinLogs[T any](dst []T, logs ...*chunkLog[T]) []T {
	n := len(dst)
	for _, l := range logs {
		for _, c := range *l {
			n += len(c)
		}
	}
	if n == len(dst) {
		return dst
	}
	out := append(make([]T, 0, n), dst...)
	for _, l := range logs {
		for _, c := range *l {
			out = append(out, c...)
		}
		*l = nil
	}
	return out
}

// rngState is a tiny deterministic PRNG (xorshift*) so that marking
// decisions don't depend on math/rand's global state.
type rngState struct{ s uint64 }

func (r *rngState) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *rngState) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// mix64 is SplitMix64's finalizer: seeds the per-port RNG streams from
// (Seed, link id) with good avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// New builds a network over the configured topology.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("netsim: Config.Topo is required")
	}
	links := 0
	for _, defs := range cfg.Topo.Ports {
		links += len(defs)
	}
	if links > maxLinks {
		return nil, fmt.Errorf("netsim: %d directed links, more than the %d an event order key holds", links, maxLinks)
	}
	cfg.fillDefaults()
	n := &Network{
		cfg:  cfg,
		topo: cfg.Topo,
	}
	if cfg.Stats != nil {
		n.stats = *cfg.Stats
	}
	n.trace = &Trace{HostPackets: make([][]EgressRecord, cfg.Topo.Hosts)}
	n.ports = make([][]*port, cfg.Topo.Nodes())
	lk := int32(0)
	for v := 0; v < cfg.Topo.Nodes(); v++ {
		defs := cfg.Topo.Ports[v]
		n.ports[v] = make([]*port, len(defs))
		for i, d := range defs {
			seed := mix64(cfg.Seed*0x9e3779b97f4a7c15 + uint64(lk)*0xbf58476d1ce4e5b9 + 0x1234567)
			if seed == 0 {
				seed = 0x9e3779b97f4a7c15
			}
			n.ports[v][i] = &port{
				owner: NodeID(v), index: i,
				peer: d.Peer, peerPort: d.PeerPort,
				lkey: lk,
				rng:  rngState{s: seed},
			}
			lk++
		}
	}
	n.shardOf = partitionNodes(cfg.Topo, cfg.Shards)
	n.shards = make([]*shard, cfg.Shards)
	for i := range n.shards {
		sh := &shard{
			idx: i, net: n, eng: NewEngine(),
			samples: make(map[PortID][]QueueSample),
			outbox:  make([][]event, cfg.Shards),
		}
		sh.eng.net = n
		n.shards[i] = sh
	}
	n.eng = n.shards[0].eng
	for v := 0; v < cfg.Topo.Nodes(); v++ {
		sh := n.shards[n.shardOf[v]]
		sh.nodes = append(sh.nodes, NodeID(v))
		for _, p := range n.ports[v] {
			p.sh = sh
			if !cfg.Topo.IsHost(p.owner) {
				sh.swPorts = append(sh.swPorts, p)
			}
		}
	}
	n.hosts = make([]*host, cfg.Topo.Hosts)
	for h := range n.hosts {
		n.hosts[h] = newHost(n, h)
	}
	return n, nil
}

// switchIndex converts a node id into a 0-based switch index.
func (n *Network) switchIndex(v NodeID) int16 { return int16(int(v) - n.topo.Hosts) }

// enqueue places pkt on the egress port, applying RED marking, episode
// tracking and tail drop.
func (n *Network) enqueue(p *port, pkt *Packet) {
	sh := p.sh
	now := sh.eng.Now()
	if p.qbytes+int64(pkt.Size) > n.cfg.BufferBytes {
		p.drops++
		n.stats.Drops.Inc()
		if int(pkt.FlowID) < len(sh.flowDrops) {
			sh.flowDrops[pkt.FlowID]++
		}
		if !n.topo.IsHost(p.owner) && pkt.Type == Data {
			sh.dropLog = append(sh.dropLog, DropRecord{
				Ns: now, Switch: n.switchIndex(p.owner), Port: int16(p.index), FlowID: pkt.FlowID,
			})
		}
		sh.recycle(pkt)
		return
	}
	isSwitch := !n.topo.IsHost(p.owner)
	if isSwitch && pkt.ECT && !pkt.CE {
		if prob := markProb(p.qbytes); prob > 0 && (prob >= 1 || p.rng.float64() < prob) {
			pkt.CE = true
			n.stats.ECNMarks.Inc()
		}
	}
	if len(p.queue) == cap(p.queue) && 2*p.qhead >= len(p.queue) {
		live := copy(p.queue, p.queue[p.qhead:])
		clear(p.queue[live:])
		p.queue, p.qhead = p.queue[:live], 0
	}
	p.queue = append(p.queue, pkt)
	p.qbytes += int64(pkt.Size)

	if isSwitch {
		n.stats.QueueHWM.SetMax(p.qbytes)
		n.trackEpisode(p, pkt, now)
	}
	if !p.busy {
		n.startTx(p)
	}
}

// episodeBytes opens a ground-truth congestion episode when a switch egress
// queue reaches it: RED's KMin, where marking starts.
const episodeBytes = redKMinBytes

// trackEpisode maintains ground-truth congestion episodes on switch ports.
func (n *Network) trackEpisode(p *port, pkt *Packet, now int64) {
	if !p.epActive {
		if p.qbytes >= episodeBytes {
			p.epActive = true
			p.epStart = now
			p.epMax = p.qbytes
			if p.epFlows == nil {
				p.epFlows = make(map[int32]struct{})
			}
			for _, q := range p.queue[p.qhead:] {
				if q.Type == Data {
					p.epFlows[q.FlowID] = struct{}{}
				}
			}
		}
		return
	}
	if p.qbytes > p.epMax {
		p.epMax = p.qbytes
	}
	if pkt.Type == Data {
		p.epFlows[pkt.FlowID] = struct{}{}
	}
}

// closeEpisodeIfDrained finalizes an episode once the queue falls below
// half the opening threshold (hysteresis, so that flapping right at the
// threshold does not fragment one burst into many zero-length episodes).
func (n *Network) closeEpisodeIfDrained(p *port, now int64) {
	if !p.epActive || p.qbytes >= episodeBytes/2 {
		return
	}
	n.finishEpisode(p, now)
}

func (n *Network) finishEpisode(p *port, now int64) {
	flows := make([]int32, 0, len(p.epFlows))
	for f := range p.epFlows {
		flows = append(flows, f)
	}
	// Canonical order: map iteration would otherwise leak randomness into
	// the trace (and shard-count dependence into the merged log).
	slices.Sort(flows)
	p.sh.episodes = append(p.sh.episodes, Episode{
		Port:     PortID{Switch: n.switchIndex(p.owner), Port: int16(p.index)},
		StartNs:  p.epStart,
		EndNs:    now,
		MaxBytes: p.epMax,
		Flows:    flows,
	})
	p.epActive = false
	for f := range p.epFlows {
		delete(p.epFlows, f)
	}
}

// startTx begins serializing the head-of-line packet.
func (n *Network) startTx(p *port) {
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
		p.busy = false
		return
	}
	p.busy = true
	pkt := p.queue[p.qhead]
	p.sh.eng.afterFinishTx(p.sh.txTime(pkt.Size), p, pkt)
}

// finishTx completes serialization: the packet leaves the port and arrives
// at the peer after the propagation delay.
func (n *Network) finishTx(p *port, pkt *Packet) {
	now := p.sh.eng.Now()
	p.queue[p.qhead] = nil
	p.qhead++
	p.qbytes -= int64(pkt.Size)

	if n.topo.IsHost(p.owner) {
		// Host NIC egress: the measurement point of §3 (µFlow at hosts).
		if pkt.Type == Data {
			if n.OnHostEgress != nil {
				n.OnHostEgress(int(p.owner), pkt, now)
			}
			if int(pkt.FlowID) < len(n.trace.Flows) {
				n.trace.Flows[pkt.FlowID].TxBytes += int64(pkt.Size)
			}
		}
		n.hosts[p.owner].onPortDrained(p)
	} else {
		// Switch egress: the µEvent observation point — CE packets are the
		// ACL match candidates.
		if pkt.CE && n.OnSwitchCE != nil {
			n.OnSwitchCE(n.switchIndex(p.owner), int16(p.index), pkt, now)
		}
		n.closeEpisodeIfDrained(p, now)
	}

	n.routeArrive(p, pkt)
	n.startTx(p)
}

// arrive delivers a packet to a node.
func (n *Network) arrive(v NodeID, pkt *Packet) {
	if n.topo.IsHost(v) {
		n.hosts[v].receive(pkt)
		return
	}
	// Switch forwarding: ECMP over shortest paths by flow hash.
	dst := pkt.dstHost()
	hops := n.topo.NextHops(v, dst)
	if len(hops) == 0 {
		n.shards[n.shardOf[v]].recycle(pkt)
		return // unroutable; cannot happen on validated topologies
	}
	pi := hops[0]
	if len(hops) > 1 {
		if pkt.ecmp == 0 {
			pkt.ecmp = pkt.Flow.Hash(ecmpSeed)
		}
		pi = hops[int(pkt.ecmp%uint64(len(hops)))]
	}
	n.enqueue(n.ports[v][pi], pkt)
}

// queueSampleNs is a recorded network's queue sampling period (Fig. 16c).
const queueSampleNs = 10_000

// scheduleQueueSampling arms periodic queue sampling on a recorded network:
// one tick chain per shard, each sampling the switch ports that shard owns,
// so sampling needs no cross-shard reads and the per-port series is
// identical at every shard count.
func (n *Network) scheduleQueueSampling(until int64) {
	if n.trace.QueueSamples == nil {
		return
	}
	for _, sh := range n.shards {
		if len(sh.swPorts) == 0 {
			continue
		}
		sh := sh
		var tick func()
		tick = func() {
			now := sh.eng.Now()
			for _, p := range sh.swPorts {
				id := PortID{Switch: n.switchIndex(p.owner), Port: int16(p.index)}
				sh.samples[id] = append(sh.samples[id], QueueSample{Ns: now, Bytes: p.qbytes})
			}
			if now+queueSampleNs <= until {
				sh.eng.After(queueSampleNs, tick)
			}
		}
		sh.eng.At(0, tick)
	}
}

// Run executes the simulation until the given horizon, closing any episodes
// still open, and returns the trace. With one shard the engine runs inline
// (the serial baseline); with several, runParallel drives the windowed
// barrier loop, and finalize merges the per-shard buffers into the same
// canonical trace either way.
func (n *Network) Run(untilNs int64) *Trace {
	for _, sh := range n.shards {
		if len(sh.flowDrops) < len(n.trace.Flows) {
			sh.flowDrops = make([]int64, len(n.trace.Flows))
		}
	}
	n.scheduleQueueSampling(untilNs)
	if len(n.shards) == 1 && !n.lockstep {
		n.trace.Events = n.eng.Run(untilNs)
	} else {
		n.trace.Events = n.runParallel(untilNs)
	}
	n.finalize(untilNs)
	n.trace.DurationNs = untilNs
	return n.trace
}

// ecmpSeed is the hash seed switches use to pick among equal-cost next
// hops.
const ecmpSeed uint64 = 0xec3b

// dstHost decodes the destination host index from the flow key (hosts are
// addressed 10.0.h.1, see host.go).
func (p *Packet) dstHost() int { return int(p.Flow.DstIP>>8) & 0xffff }
