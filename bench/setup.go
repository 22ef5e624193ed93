package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
	"umon/internal/workload"
)

// item is one record of the merged, time-ordered feed: a host egress
// packet (port < 0, node = host) or a CE mark at a switch egress port
// (node = switch).
type item struct {
	ns   int64
	flow flowkey.Key
	psn  uint32
	size int32
	node int16
	port int16
}

// recordingSeed is the generator and simulator seed of every workload's
// traffic pattern. The pattern is a recording, a constant of the workload:
// at these trace lengths a fresh draw moves the congestion-event count by
// ±15 % and every per-packet cost with it, so ten seeds would measure ten
// workloads. --seed draws what the pattern is laid over: the flow
// identities (which sketch buckets collide), the phase of the trace against
// the window grid (what each sketch window sees), the probe order and hot
// set, and the synthetic fleet's contents.
const recordingSeed = 42

// draw is what --seed decides about the feed.
type draw struct {
	phaseNs      int64  // added to every timestamp: 0 ≤ phase < one sketch window
	srcIP, dstIP uint32 // XORed into every flow key: a bijection on keys
	srcPort      uint16
}

func drawFrom(seed int64) draw {
	r := splitmix(uint64(seed))
	a, b := r(), r()
	return draw{
		phaseNs: int64(a % (1 << measure.DefaultWindowShift)),
		srcIP:   uint32(a >> 32), dstIP: uint32(b >> 32), srcPort: uint16(b),
	}
}

func (d draw) key(k flowkey.Key) flowkey.Key {
	k.SrcIP ^= d.srcIP
	k.DstIP ^= d.dstIP
	k.SrcPort ^= d.srcPort
	return k
}

// splitmix returns a small seeded generator for the benchmark's own draws
// (shuffles, probe choice, synthetic sizes).
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}

// inputs is everything set-up hands the measured phase. All of it is a
// function of the workload and the seed.
type inputs struct {
	spec   *workloadSpec
	seed   int64
	draw   draw
	topo   *netsim.Topology
	simCfg netsim.Config
	flows  []workload.Flow
	trace  *netsim.Trace
	digest uint64
	feed   []item
	truth  *measure.GroundTruth
	// lapEpochs is the trace horizon rounded up to whole epochs: each lap
	// of the replay shifts the feed by lapEpochs epochs.
	lapEpochs   int
	packets     int // host packets per lap
	ceMarks     int // CE records per lap
	activeHosts int // hosts that send at all
	fleet       *fleetSet

	generateS float64
	simS      float64
}

func (in *inputs) lapSpan() int64 { return int64(in.lapEpochs) * epochNs }
func (in *inputs) horizon() int64 { return in.spec.TrafficNs + in.spec.DrainNs }
func (in *inputs) rule() uevent.ACLRule {
	return uevent.ACLRule{SampleBits: in.spec.SampleBits}
}

func distOf(name string) (*workload.Distribution, error) {
	switch name {
	case "hadoop":
		return workload.FacebookHadoop(), nil
	case "websearch":
		return workload.WebSearch(), nil
	}
	return nil, fmt.Errorf("unknown flow-size distribution %q", name)
}

// simulate runs the workload's fabric on the given shard count and
// returns the trace with the wall time of netsim.RunWorkload.
func simulate(in *inputs, shards int) (*netsim.Trace, float64, error) {
	cfg := in.simCfg
	cfg.Shards = shards
	start := time.Now()
	tr, err := netsim.RunWorkload(cfg, in.flows, in.horizon())
	return tr, time.Since(start).Seconds(), err
}

// setUp generates the flows, simulates the fabric, merges the feed and
// builds the ground truth (and, for a synthetic fleet, its reports).
func setUp(spec *workloadSpec, seed int64) (*inputs, error) {
	in := &inputs{spec: spec, seed: seed, draw: drawFrom(seed)}
	topo, err := netsim.FatTree(fatTreeK)
	if err != nil {
		return nil, err
	}
	in.topo = topo
	in.simCfg = netsim.DefaultConfig(topo)
	in.simCfg.Seed = recordingSeed
	dist, err := distOf(spec.Dist)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	in.flows, err = workload.Generate(workload.Config{
		Dist: dist, Load: spec.Load, Hosts: topo.Hosts,
		LinkBps: in.simCfg.LinkBps, DurationNs: spec.TrafficNs, Seed: recordingSeed,
	})
	if err != nil {
		return nil, err
	}
	in.generateS = time.Since(start).Seconds()

	in.trace, in.simS, err = simulate(in, 1)
	if err != nil {
		return nil, err
	}
	in.mergeFeed()
	in.truth = measure.NewGroundTruth()
	for i := range in.feed {
		if it := &in.feed[i]; it.port < 0 {
			in.truth.Update(it.flow, measure.WindowOf(it.ns), int64(it.size))
		}
	}
	in.lapEpochs = int((in.horizon() + in.draw.phaseNs + epochNs - 1) / epochNs)
	if spec.Fleet != nil {
		if in.fleet, err = syntheticFleet(spec.Fleet, seed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// mergeFeed interleaves every host's egress packets with the CE log into
// one feed ordered by time, under the seed's draw of flow identities and
// phase. The key is total (a NIC sends, and a port
// marks, at most one packet per nanosecond), so the order is a function of
// the trace alone.
//
// Within blocks of at most maxBatch records that stay inside one epoch the
// host packets are then moved ahead of the CE marks. Hosts and switches
// are separate machines and neither stream is reordered in itself, so no
// layer can tell; but consecutive calls now go into the same layer, which
// is what lets a traced lap time them with one span per batch.
func (in *inputs) mergeFeed() {
	tr := in.trace
	in.packets = int(tr.TotalPackets())
	in.ceMarks = len(tr.CELog)
	feed := make([]item, 0, in.packets+in.ceMarks)
	for h, pkts := range tr.HostPackets {
		if len(pkts) > 0 {
			in.activeHosts++
		}
		for i := range pkts {
			feed = append(feed, item{ns: pkts[i].Ns + in.draw.phaseNs, flow: in.draw.key(pkts[i].Flow), size: pkts[i].Size, node: int16(h), port: -1})
		}
	}
	for i := range tr.CELog {
		ce := &tr.CELog[i]
		feed = append(feed, item{ns: ce.Ns + in.draw.phaseNs, flow: in.draw.key(ce.Flow), psn: ce.PSN, size: ce.Size, node: ce.Switch, port: ce.Port})
	}
	sort.Slice(feed, func(i, j int) bool {
		a, b := &feed[i], &feed[j]
		if a.ns != b.ns {
			return a.ns < b.ns
		}
		if (a.port < 0) != (b.port < 0) {
			return a.port < 0
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.port < b.port
	})
	var cePart [maxBatch]item
	for lo := 0; lo < len(feed); {
		hi, epoch := lo, feed[lo].ns/epochNs
		for hi < len(feed) && hi-lo < maxBatch && feed[hi].ns/epochNs == epoch {
			hi++
		}
		pkts, ces := lo, 0
		for i := lo; i < hi; i++ {
			if feed[i].port < 0 {
				feed[pkts] = feed[i]
				pkts++
			} else {
				cePart[ces] = feed[i]
				ces++
			}
		}
		copy(feed[pkts:hi], cePart[:ces])
		lo = hi
	}
	in.feed = feed
}

// traceDigest folds every packet-level record of a trace into one number.
// Trace.Events is left out: it counts per-shard engine bookkeeping and is
// the one field that differs between shard counts.
func traceDigest(tr *netsim.Trace) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	key := func(k flowkey.Key) {
		mix(uint64(k.SrcIP)<<32 | uint64(k.DstIP))
		mix(uint64(k.SrcPort)<<32 | uint64(k.DstPort)<<16 | uint64(k.Proto))
	}
	mix(uint64(tr.DurationNs))
	for hst, pkts := range tr.HostPackets {
		mix(uint64(hst)<<32 | uint64(len(pkts)))
		for i := range pkts {
			mix(uint64(pkts[i].Ns))
			mix(uint64(uint32(pkts[i].FlowID))<<32 | uint64(uint32(pkts[i].Size)))
			key(pkts[i].Flow)
		}
	}
	for i := range tr.CELog {
		ce := &tr.CELog[i]
		mix(uint64(ce.Ns))
		mix(uint64(uint16(ce.Switch))<<48 | uint64(uint16(ce.Port))<<32 | uint64(ce.PSN))
		mix(uint64(uint32(ce.FlowID))<<32 | uint64(uint32(ce.Size)))
		key(ce.Flow)
	}
	for i := range tr.Episodes {
		ep := &tr.Episodes[i]
		mix(uint64(uint16(ep.Port.Switch))<<16 | uint64(uint16(ep.Port.Port)))
		mix(uint64(ep.StartNs))
		mix(uint64(ep.EndNs))
		mix(uint64(ep.MaxBytes))
		for _, f := range ep.Flows {
			mix(uint64(uint32(f)))
		}
	}
	for i := range tr.Flows {
		f := &tr.Flows[i]
		mix(uint64(uint32(f.ID)))
		mix(uint64(f.FirstTxNs))
		mix(uint64(f.LastRxNs))
		mix(uint64(f.RxBytes))
		mix(uint64(f.TxBytes))
		mix(uint64(f.Drops)<<32 | uint64(f.CNPs)<<16 | uint64(f.Retransmits))
	}
	for i := range tr.DropLog {
		d := &tr.DropLog[i]
		mix(uint64(d.Ns))
		mix(uint64(uint16(d.Switch))<<48 | uint64(uint16(d.Port))<<32 | uint64(uint32(d.FlowID)))
	}
	return h
}

// --- the window the fleet rounds serve ---

// probe is one QueryFlow of the reader: queryWindows windows of one
// flow starting at from.
type probe struct {
	key  flowkey.Key
	from int64
}

// fleetSet is the canonical content of a collector window, as encoded
// reports in admission order (epoch-major, oldest first), with the probes
// and events the reader asks about. The first hot probes form the hot set.
type fleetSet struct {
	epochs [][][]byte
	probes []probe
	hot    int
	events []analyzer.Event
}

func (fs *fleetSet) reports() int {
	n := 0
	for _, e := range fs.epochs {
		n += len(e)
	}
	return n
}

// fleetSketch is the geometry of the synthetic fleet's reports: a wide
// light part keeps per-report bucket occupancy low, so that routing a flow
// reaches its own reports and a handful of false passes, not the window.
// Width and flows per report are a quarter of the repository's scale
// fixture (4096, 512): the same occupancy and selectivity from a quarter of
// the heap. Served from 0.7 GB, the reader's latency followed the pressure
// the host's other guests put on the caches (26 to 52 µs between runs in
// which nothing else moved by more than a tenth).
var fleetSketch = wavesketch.Config{Rows: 3, Width: 1024, Levels: 8, K: 1, Seed: 0x5eed0f}

func fleetKey(id int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0b000000 + uint32(id), DstIP: 0x0ac8c8c8,
		SrcPort: uint16(20000 + id%4096), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// syntheticFleet seals and encodes Hosts × ContentEpochs reports of
// FlowsPerReport distinct flows each through the exported sketch and
// report APIs. Flow sizes and windows come from the seed.
func syntheticFleet(fl *fleetSpec, seed int64) (*fleetSet, error) {
	sk, err := wavesketch.NewBasic(fleetSketch)
	if err != nil {
		return nil, err
	}
	fs := &fleetSet{hot: fl.HotFlows}
	next := splitmix(uint64(seed) ^ 0xf1ee7)
	flows := fl.Hosts * fl.ContentEpochs * fl.FlowsPerReport
	var buf bytes.Buffer
	for e := 0; e < fl.ContentEpochs; e++ {
		var epoch [][]byte
		for h := 0; h < fl.Hosts; h++ {
			sk.Reset()
			base := (e*fl.Hosts + h) * fl.FlowsPerReport
			for j := 0; j < fl.FlowsPerReport; j++ {
				r := next()
				sk.Update(fleetKey(base+j), int64(r%queryWindows), int64(64+(r>>32)%1400))
			}
			sk.Seal()
			buf.Reset()
			if _, err := report.FromBasic(h, int64(e)*epochNs>>measure.DefaultWindowShift, sk).Encode(&buf); err != nil {
				return nil, err
			}
			epoch = append(epoch, append([]byte(nil), buf.Bytes()...))
		}
		fs.epochs = append(fs.epochs, epoch)
	}
	// The window's later epochs repeat the content: a flow lives on.
	for e := fl.ContentEpochs; e < windowEpochs; e++ {
		fs.epochs = append(fs.epochs, fs.epochs[e%fl.ContentEpochs])
	}
	// Probes visit the flows with a stride coprime to their number, so the
	// hot set is spread over every report.
	fs.probes = make([]probe, flows)
	for i := range fs.probes {
		id := int(uint64(i) * 2049 % uint64(flows))
		fs.probes[i] = probe{key: fleetKey(id)}
	}
	if fs.hot > flows {
		fs.hot = flows
	}
	ev := analyzer.Event{StartNs: 0, EndNs: 20 * 8192, Packets: 8}
	for i := 0; i < 8; i++ {
		ev.Flows = append(ev.Flows, fleetKey(i*flows/8))
	}
	fs.events = []analyzer.Event{ev}
	return fs, nil
}
