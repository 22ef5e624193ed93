package netsim

import (
	"fmt"

	"umon/internal/flowkey"
)

// HostIP returns the address of host h (10.0.h.1, so the host index is
// recoverable from the key for routing).
func HostIP(h int) uint32 { return 0x0a000001 | uint32(h)<<8 }

// CCAlgo selects a flow's congestion control.
type CCAlgo uint8

const (
	// CCDCQCN is the default rate-based RoCE controller (§7.2).
	CCDCQCN CCAlgo = iota
	// CCDCTCP is the window-based, ACK-clocked DCTCP controller; it
	// implies go-back-N reliability.
	CCDCTCP
)

// FlowSpec describes one flow to inject.
type FlowSpec struct {
	Src, Dst int
	Bytes    int64
	StartNs  int64
	// CC selects the congestion controller (default DCQCN).
	CC CCAlgo
	// FixedRateBps disables congestion control and paces at a constant
	// rate (used by the Figure 9 on-off contender). 0 selects CC.
	FixedRateBps float64
	// OnNs/OffNs, when both positive, gate injection with an on-off duty
	// cycle relative to StartNs.
	OnNs, OffNs int64
}

// flowState is the per-flow sender state.
type flowState struct {
	id        int32
	key       flowkey.Key
	spec      FlowSpec
	remaining int64
	psn       uint32
	cc        dcqcnState
	blocked   bool
	finished  bool

	// Window mode (DCTCP, go-back-N); win is nil for a rate flow.
	win            *dctcpState
	ackedPSN       uint32
	lastProgressNs int64
	// pacing marks a window flow's scheduled on-off resume, so its off
	// phase schedules one.
	pacing bool
	// ccArmed / rtoArmed make timer arming idempotent: each self-rearming
	// typed tick chain exists at most once per flow, a stale tick after
	// finish disarms the chain, and re-arming a live chain is a no-op —
	// all without allocating (the tick events carry the flow directly).
	ccArmed  bool
	rtoArmed bool
}

// hostInjectCapBytes bounds a host NIC's egress queue: a flow that finds
// the queue this full blocks until it drains (NIC backpressure).
const hostInjectCapBytes = 8 << 10

type host struct {
	net     *Network
	sh      *shard // owning shard: all of this host's events run on its engine
	id      int
	port    *port // single NIC uplink
	flows   map[int32]*flowState
	blocked []*flowState
	lastCNP map[int32]int64 // receiver-side CNP pacing per flow
	// Receiver-side go-back-N state.
	expected map[int32]uint32
	nakFor   map[int32]uint32
	nextSP   uint16
}

func newHost(n *Network, id int) *host {
	return &host{
		net:      n,
		sh:       n.shards[n.shardOf[id]],
		id:       id,
		port:     n.ports[id][0],
		flows:    make(map[int32]*flowState),
		lastCNP:  make(map[int32]int64),
		expected: make(map[int32]uint32),
		nakFor:   make(map[int32]uint32),
		nextSP:   10000,
	}
}

// AddFlow registers a flow and schedules its start. It must be called
// before Run. Returns the flow id.
func (n *Network) AddFlow(spec FlowSpec) (int32, error) {
	if spec.Src < 0 || spec.Src >= n.topo.Hosts || spec.Dst < 0 || spec.Dst >= n.topo.Hosts {
		return 0, fmt.Errorf("netsim: flow endpoints out of range: %d→%d", spec.Src, spec.Dst)
	}
	if spec.Src == spec.Dst {
		return 0, fmt.Errorf("netsim: flow src == dst (%d)", spec.Src)
	}
	if spec.Bytes <= 0 {
		return 0, fmt.Errorf("netsim: flow size must be positive, got %d", spec.Bytes)
	}
	if spec.CC == CCDCTCP && spec.FixedRateBps > 0 {
		return 0, fmt.Errorf("netsim: CCDCTCP and FixedRateBps are mutually exclusive")
	}
	id := int32(len(n.trace.Flows))
	h := n.hosts[spec.Src]
	sp := h.nextSP
	h.nextSP++
	proto := uint8(flowkey.ProtoUDP)
	dstPort := uint16(flowkey.RoCEPort)
	if spec.CC == CCDCTCP {
		proto = flowkey.ProtoTCP
		dstPort = 5201
	}
	key := flowkey.Key{
		SrcIP:   HostIP(spec.Src),
		DstIP:   HostIP(spec.Dst),
		SrcPort: sp,
		DstPort: dstPort,
		Proto:   proto,
	}
	fs := &flowState{id: id, key: key, spec: spec, remaining: spec.Bytes}
	fs.cc = newDCQCNState(n.cfg.LinkBps)
	switch {
	case spec.CC == CCDCTCP:
		fs.win = newDCTCPState()
	case spec.FixedRateBps > 0:
		fs.cc.rc = spec.FixedRateBps
		fs.cc.fixed = true
	}
	h.flows[id] = fs
	n.trace.Flows = append(n.trace.Flows, FlowStat{
		ID: id, Key: key, Src: spec.Src, Dst: spec.Dst,
		Bytes: spec.Bytes, StartNs: spec.StartNs,
	})
	h.sh.eng.push(event{at: spec.StartNs, kind: evStart, flow: fs})
	return id, nil
}

// startFlow runs a flow's evStart event: stamp the progress clock, inject
// the first segment(s) and arm the flow's timer chains.
func (h *host) startFlow(fs *flowState) {
	fs.lastProgressNs = h.sh.eng.Now()
	h.inject(fs)
	if fs.win != nil {
		h.armRTOTimer(fs)
	} else if !fs.cc.fixed {
		h.armDCQCNTimers(fs)
	}
}

// inject drives a flow: window flows send up to cwnd, rate flows emit one
// segment and self-schedule at the current rate.
func (h *host) inject(fs *flowState) {
	if fs.win != nil {
		fs.pacing = false // a scheduled resume has fired
		h.trySendWindow(fs)
		return
	}
	if fs.finished || fs.remaining <= 0 {
		fs.finished = true
		return
	}
	now := h.sh.eng.Now()

	// On-off gating for scripted contenders.
	if fs.spec.OnNs > 0 && fs.spec.OffNs > 0 {
		cycle := fs.spec.OnNs + fs.spec.OffNs
		phase := (now - fs.spec.StartNs) % cycle
		if phase >= fs.spec.OnNs {
			h.sh.eng.afterInject(cycle-phase, fs)
			return
		}
	}

	// NIC backpressure: wait until the egress queue drains.
	if h.port.qbytes >= hostInjectCapBytes {
		if !fs.blocked {
			fs.blocked = true
			h.blocked = append(h.blocked, fs)
		}
		return
	}

	size := h.sendSegment(fs)
	if fs.remaining <= 0 {
		fs.finished = true
		return
	}
	gapNs := int64(float64(size) * 8 / fs.cc.rc * 1e9)
	if gapNs < 1 {
		gapNs = 1
	}
	h.sh.eng.afterInject(gapNs, fs)
}

// trySendWindow emits segments while the DCTCP window and the NIC queue
// allow. On-off flows stay silent during their off phase (the
// application-limited TCP behaviour of Figure 9a).
func (h *host) trySendWindow(fs *flowState) {
	if fs.spec.OnNs > 0 && fs.spec.OffNs > 0 && fs.remaining > 0 {
		now := h.sh.eng.Now()
		cycle := fs.spec.OnNs + fs.spec.OffNs
		phase := (now - fs.spec.StartNs) % cycle
		if phase >= fs.spec.OnNs {
			if !fs.pacing {
				fs.pacing = true
				h.sh.eng.afterInject(cycle-phase, fs)
			}
			return
		}
	}
	for fs.remaining > 0 {
		inflight := int64(fs.psn-fs.ackedPSN) * PayloadBytes
		if float64(inflight) >= fs.win.cwnd {
			return
		}
		if h.port.qbytes >= hostInjectCapBytes {
			if !fs.blocked {
				fs.blocked = true
				h.blocked = append(h.blocked, fs)
			}
			return
		}
		h.sendSegment(fs)
	}
}

// sendSegment constructs and enqueues the flow's next data segment,
// returning its wire size. (The packet itself may already be recycled by a
// tail drop when this returns, so callers get the size, not the pointer.)
func (h *host) sendSegment(fs *flowState) int32 {
	now := h.sh.eng.Now()
	payload := int64(PayloadBytes)
	if fs.remaining < payload {
		payload = fs.remaining
	}
	fs.remaining -= payload
	size := int32(payload + HeaderBytes)
	pkt := h.sh.newPacket()
	*pkt = Packet{
		Flow:   fs.key,
		FlowID: fs.id,
		Type:   Data,
		PSN:    fs.psn,
		Size:   size,
		ECT:    true,
		SentNs: now,
		Last:   fs.remaining == 0,
		Win:    fs.win != nil,
	}
	fs.psn++
	st := &h.net.trace.Flows[fs.id]
	if st.FirstTxNs == 0 {
		st.FirstTxNs = now
	}
	h.net.enqueue(h.port, pkt)
	return size
}

// rewind implements the go-back-N sender: resume from PSN `to`. The
// window flow is driven on by ACKs and trySendWindow.
func (h *host) rewind(fs *flowState, to uint32) {
	if to >= fs.psn {
		return
	}
	delta := int64(fs.psn - to)
	h.net.trace.Flows[fs.id].Retransmits += delta
	fs.psn = to
	fs.remaining = fs.spec.Bytes - int64(to)*PayloadBytes
	fs.finished = false
}

// onPortDrained wakes injection-blocked flows once the NIC queue has room.
func (h *host) onPortDrained(p *port) {
	if p.qbytes >= hostInjectCapBytes || len(h.blocked) == 0 {
		return
	}
	woken := h.blocked
	h.blocked = h.blocked[:0]
	for _, fs := range woken {
		fs.blocked = false
		h.inject(fs)
	}
}

// receive handles packets arriving at this host. The host is every
// packet's final stop, so the packet is recycled once handled; no receive
// path retains the pointer.
func (h *host) receive(pkt *Packet) {
	defer h.sh.recycle(pkt)
	now := h.sh.eng.Now()
	switch pkt.Type {
	case Data:
		if pkt.Win {
			h.receiveReliable(pkt, now)
			return
		}
		st := &h.net.trace.Flows[pkt.FlowID]
		st.RxBytes += int64(pkt.Size) - HeaderBytes
		st.LastRxNs = now
		if pkt.CE {
			h.maybeCNP(pkt, now)
		}
	case CNP:
		if fs, ok := h.flows[pkt.FlowID]; ok && !fs.cc.fixed && fs.win == nil {
			fs.cc.onCNP(now)
			h.net.trace.Flows[pkt.FlowID].CNPs++
		}
	case ACK:
		h.receiveAck(pkt, now)
	case NAK:
		if fs, ok := h.flows[pkt.FlowID]; ok && fs.win != nil {
			h.rewind(fs, pkt.PSN)
			fs.win.onLoss()
			fs.lastProgressNs = now
			h.trySendWindow(fs)
		}
	}
}

// receiveReliable is the go-back-N receiver of a window flow: in-order
// segments deliver and are ACKed cumulatively, echoing CE; gaps NAK once
// per expected PSN; duplicates re-ACK.
func (h *host) receiveReliable(pkt *Packet, now int64) {
	id := pkt.FlowID
	st := &h.net.trace.Flows[id]
	st.LastRxNs = now
	exp := h.expected[id]
	switch {
	case pkt.PSN == exp:
		exp++
		h.expected[id] = exp
		st.RxBytes += int64(pkt.Size) - HeaderBytes
		delete(h.nakFor, id)
		h.sendCtl(pkt, ACK, exp, pkt.CE)
	case pkt.PSN > exp:
		// Out of sequence: discard, NAK the expected PSN once.
		if got, ok := h.nakFor[id]; !ok || got != exp {
			h.nakFor[id] = exp
			h.sendCtl(pkt, NAK, exp, false)
		}
	default:
		// Duplicate from a rewind: refresh the cumulative ACK.
		h.sendCtl(pkt, ACK, exp, pkt.CE)
	}
}

// sendCtl emits an ACK or NAK back to the sender.
func (h *host) sendCtl(data *Packet, typ PacketType, psn uint32, ce bool) {
	pkt := h.sh.newPacket()
	*pkt = Packet{
		Flow:   data.Flow.Reverse(),
		FlowID: data.FlowID,
		Type:   typ,
		PSN:    psn,
		Size:   AckBytes,
		CE:     ce, // ECE echo rides the ACK
		SentNs: h.sh.eng.Now(),
	}
	h.net.enqueue(h.port, pkt)
}

// maybeCNP applies the DCQCN receiver's CNP pacing.
func (h *host) maybeCNP(pkt *Packet, now int64) {
	last, seen := h.lastCNP[pkt.FlowID]
	if seen && now-last < cnpIntervalNs {
		return
	}
	h.lastCNP[pkt.FlowID] = now
	cnp := h.sh.newPacket()
	*cnp = Packet{
		Flow:   pkt.Flow.Reverse(),
		FlowID: pkt.FlowID,
		Type:   CNP,
		Size:   CNPBytes,
		SentNs: now,
	}
	h.net.enqueue(h.port, cnp)
}

// receiveAck drives the DCTCP sender.
func (h *host) receiveAck(pkt *Packet, now int64) {
	fs, ok := h.flows[pkt.FlowID]
	if !ok || fs.win == nil {
		return
	}
	if pkt.PSN > fs.ackedPSN {
		fs.ackedPSN = pkt.PSN
		fs.lastProgressNs = now
		if fs.ackedPSN >= fs.win.epochEnd {
			fs.win.onEpochEnd()
			fs.win.epochEnd = fs.psn
		}
	}
	fs.win.onAck(pkt.CE, fs.psn)
	if fs.remaining <= 0 && fs.ackedPSN >= fs.psn {
		fs.finished = true // fully delivered and acknowledged
		return
	}
	h.trySendWindow(fs)
}
