// Package netsim is a from-scratch discrete-event network simulator
// standing in for the paper's NS-3 environment (§7: fat-tree k=4, 100 Gbps
// links, 1 µs per-hop latency, RED/ECN marking, DCQCN congestion control).
// It produces the observables the evaluation consumes: per-host egress
// packet streams, per-port queue-length series, CE-marked packet logs and
// ground-truth congestion episodes.
package netsim

import "math/bits"

// The event scheduler is a hierarchical timing wheel (calendar queue).
// Millions of events per run — serialization completions every ~85 ns,
// arrivals every 1 µs, CNP/DCQCN/RTO timers every 25–500 µs — would cost
// O(log n) each in one binary min-heap; the wheel schedules and dispatches
// the near future in O(1) amortized:
//
//   - time is divided into 2^bucketShift-ns ticks; the inner wheel holds
//     one unordered slice ("bucket") per tick for the next numBuckets
//     ticks (≈262 µs of horizon), so scheduling is an append and a mask;
//   - events beyond the wheel horizon (RTOs, flow starts, long timers)
//     wait in a small overflow min-heap on the cold path and cascade into
//     the wheel as it turns;
//   - dispatch orders keys, not events: advancing to a tick copies its
//     bucket (plus any overflow events that became due) into the tick's
//     payload slab and files one order key per event into a calendar of
//     the tick's 256 nanoseconds — an occupancy bitmap and one list of
//     keys per nanosecond, kept in key order. The next event is the head
//     of the first occupied nanosecond, one TrailingZeros64 away. Events
//     scheduled into the tick *during* its dispatch (a third of all
//     events) file the same way, mostly into an empty nanosecond or at a
//     list's head (a local event at now goes ahead of pending link events)
//     or tail. Payloads stay put until the tick drains.
//
// Determinism is structural: every event executes in the total order
// (at, lkey, seq). Local events (timers, injections, serialization
// completions — everything whose cause and effect live on one engine)
// carry lkey = -1 and order by the engine-local seq; link events (packet
// arrivals, the only events that can originate on a *different* engine
// when the simulation is sharded) order by their directed link's id and
// the sending port's own sequence counter. Because the link key is
// assigned at the sender rather than at push time, the order is a
// property of the traffic itself: a sharded run reconstructs
// exactly the serial dispatch order, shard by shard (verified
// event-for-event against the binary-heap oracles of engine_oracle_test.go
// and by the serial-vs-parallel trace tests in shard_test.go, and
// byte-identical on the fig10/fig11/fig12 goldens at every shard count).
const (
	// bucketShift sets the tick width: 256 ns, a few serialization times.
	bucketShift = 8
	tickNs      = int64(1) << bucketShift
	// numBuckets sets the wheel span: 1024 ticks ≈ 262 µs, wide enough
	// that per-packet events, CNP pacing (25 µs) and both DCQCN timers
	// (55/150 µs) schedule without touching the overflow heap.
	numBuckets = 1 << 10
	bucketMask = numBuckets - 1

	// An order key packs an event's (at, lkey, seq) within its tick into
	// one word, so one integer compare is the dispatch order: at's offset
	// into the tick in the top bucketShift bits, lkey+1 in the next
	// lkeyBits, seq in the low seqBits. New refuses a topology with more
	// than maxLinks directed links, and nextSeq refuses to pass maxSeq.
	lkeyBits = 16
	offShift = 64 - bucketShift
	seqBits  = offShift - lkeyBits
	maxSeq   = 1<<seqBits - 1
	maxLinks = 1<<lkeyBits - 1
)

// Engine is a deterministic discrete-event scheduler with nanosecond time.
// All simulator periodic and per-packet work is typed events (no closure
// allocation, no indirect call): serialization completion, link arrival,
// flow injection and start, DCQCN alpha/rate timers and go-back-N RTO
// ticks. Cold or external scheduling uses plain funcs.
type Engine struct {
	now int64
	seq uint64
	// net is set by Network to dispatch typed events.
	net *Network

	// curTick is the tick being dispatched; every pending event at tick
	// curTick has its payload in tickEvs and its order key in the
	// calendar. Ticks in (curTick, curTick+numBuckets) live in the wheel,
	// later ones overflow. The clock never trails curTick: Run loads a
	// tick only if it starts at or before the horizon.
	curTick    int64
	tickEvs    []event
	cal        calendar
	wheel      [][]event // numBuckets unordered per-tick buckets
	wheelCount int       // events parked in wheel buckets
	overflow   eventHeap // events ≥ numBuckets ticks ahead
	// pieces gives every bucket slabPerBucket slots of its own. A bucket
	// that outgrows its piece moves into a spare array, which a drained
	// bucket gave back, so the few arrays that near ticks fill circulate
	// hot in cache and a run's wheel stays near its pieces' size.
	pieces []event
	spare  [][]event
	// scanFrom is a tick no later than the first occupied bucket, so a Run
	// that stops short of it does not rescan the empty ones between.
	scanFrom int64

	// funcs holds the closures of pending evFunc events, which name their
	// slot; a dispatched slot joins freeFuncs, so a self-rearming func
	// (the queue-sampling tick) reuses one slot.
	funcs     []func()
	freeFuncs []int32

	// Telemetry accumulators: plain (non-atomic) counts folded into the
	// nil-safe SimStats handles once per 4096 events and at Run exit, so
	// the per-event cost is one array increment whether or not telemetry
	// is enabled.
	schedByKind   [numEventKinds]int64
	flushedByKind [numEventKinds]int64
	eventsRun     int64
	eventsFlushed int64
}

type eventKind uint8

const (
	evFunc eventKind = iota
	evFinishTx
	evArrive
	evInject
	evStart      // flow start: set progress clock, inject, arm timers
	evDCQCNAlpha // DCQCN alpha-decay tick (self-rearming)
	evDCQCNRate  // DCQCN rate-increase tick (self-rearming)
	evRTO        // go-back-N stall-recovery tick (self-rearming)

	numEventKinds = int(evRTO) + 1
)

// eventKindNames labels the scheduled-events-by-kind telemetry series.
var eventKindNames = [numEventKinds]string{
	"func", "finish_tx", "arrive", "inject", "start",
	"dcqcn_alpha", "dcqcn_rate", "rto",
}

// event is one scheduled event, 56 bytes: the wheel, the tick slab and
// the shard outboxes copy it by value. A flow event's host is its flow's
// source; an evFunc's closure waits in its engine's funcs table.
type event struct {
	at   int64
	seq  uint64 // tiebreak: engine-local FIFO, or per-link sequence
	port *port
	pkt  *Packet
	flow *flowState
	// lkey is the total-order class: -1 for local events (ordered by the
	// engine-local seq), or the directed-link id for link events (packet
	// arrivals), which order by (lkey, sender's per-link seq) so a sharded
	// run reproduces the serial dispatch order exactly.
	lkey int32
	node int32 // an arrival's node
	kind eventKind
	fn   int32 // an evFunc's slot in Engine.funcs
}

// nextSeq advances a sequence counter, refusing to pass the seqBits an
// order key holds for it.
func nextSeq(s *uint64) uint64 {
	if *s >= maxSeq {
		panic("netsim: event sequence exhausted")
	}
	*s++
	return *s
}

// calendar orders the current tick's events: one list of tickEvs
// indices per nanosecond of the tick, each in order-key order, and a
// bitmap of the nanoseconds whose list is not empty. ord and next are
// indexed like tickEvs: an event's order key (see lkeyBits) and the next
// index in its list, -1 at the tail. head and tail are valid only for
// occupied nanoseconds, so a drained calendar resets only ord and next.
type calendar struct {
	occ        [tickNs / 64]uint64
	lo         int // no word below occ[lo] is occupied
	head, tail [tickNs]int32
	ord        []uint64
	next       []int32
	n          int // pending events
}

// reset readies a drained calendar for a new tick.
func (c *calendar) reset() { c.ord, c.next = c.ord[:0], c.next[:0] }

// file adds the next tickEvs index, an event of the current tick, with
// order key ord. Most keys land in an empty nanosecond or at an end of its
// list; the rest walk the list, which seldom holds more than a few.
func (c *calendar) file(ord uint64) {
	i := int32(len(c.ord))
	c.ord = append(c.ord, ord)
	c.next = append(c.next, -1)
	c.n++
	off := ord >> offShift
	w, bit := off>>6, uint64(1)<<(off&63)
	c.lo = min(c.lo, int(w))
	switch {
	case c.occ[w]&bit == 0:
		c.occ[w] |= bit
		c.head[off], c.tail[off] = i, i
	case ord > c.ord[c.tail[off]]:
		c.next[c.tail[off]] = i
		c.tail[off] = i
	case ord < c.ord[c.head[off]]:
		c.next[i] = c.head[off]
		c.head[off] = i
	default:
		p := c.head[off]
		for c.ord[c.next[p]] < ord {
			p = c.next[p]
		}
		c.next[i], c.next[p] = c.next[p], i
	}
}

// first reports the first occupied nanosecond of the tick, -1 if none.
func (c *calendar) first() int {
	if c.n == 0 {
		return -1
	}
	for c.occ[c.lo] == 0 {
		c.lo++
	}
	return c.lo<<6 | bits.TrailingZeros64(c.occ[c.lo])
}

// pop removes and returns the head of nanosecond off's list, which must
// be occupied.
func (c *calendar) pop(off int) int32 {
	i := c.head[off]
	if nx := c.next[i]; nx >= 0 {
		c.head[off] = nx
	} else {
		c.occ[off>>6] &^= 1 << (off & 63)
	}
	c.n--
	return i
}

// orderKey packs the order key of an event of the current tick.
func (e *Engine) orderKey(at int64, lkey int32, seq uint64) uint64 {
	return uint64(at-e.curTick<<bucketShift)<<offShift | uint64(lkey+1)<<seqBits | seq
}

// eventHeap is a typed binary min-heap of whole events ordered by (at,
// lkey, seq): the far-future overflow store. It is hand-rolled rather than
// built on container/heap because heap.Push boxes every event into an
// interface — one heap allocation per scheduled event.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].lkey != h[j].lkey {
		return h[i].lkey < h[j].lkey
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s)
	out := s[0]
	s[0] = s[n-1]
	s[n-1] = event{} // release references
	s = s[:n-1]
	*h = s
	s.down(0)
	return out
}

// down sifts element i toward the leaves until the heap order holds.
func (h eventHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		least := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// slabPerBucket is the slots of a bucket's own piece.
const slabPerBucket = 4

// NewEngine returns an engine at time 0. Every wheel bucket starts with its
// piece of one contiguous slab, so the schedule path is allocation-free
// from the first event, and adjacent buckets share cache lines.
func NewEngine() *Engine {
	e := &Engine{wheel: make([][]event, numBuckets), pieces: make([]event, numBuckets*slabPerBucket)}
	for b := range e.wheel {
		e.wheel[b] = e.piece(int64(b))
	}
	return e
}

// piece returns bucket b's own slots, empty.
func (e *Engine) piece(b int64) []event {
	return e.pieces[b*slabPerBucket : b*slabPerBucket : (b+1)*slabPerBucket]
}

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// push schedules a local event: it receives the engine-local sequence
// number and the local order class (lkey = -1, before all link events at
// the same instant).
func (e *Engine) push(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	ev.seq = nextSeq(&e.seq)
	ev.lkey = -1
	e.schedByKind[ev.kind]++
	e.place(ev)
}

// pushLink schedules a link event whose (lkey, seq) total-order key was
// assigned by the sending port. It is also the barrier-time delivery path
// for cross-shard handoffs: the destination engine is quiescent between
// lookahead windows, and the event's time is at least one propagation
// delay past the window the sender ran in, so no clamping can occur.
func (e *Engine) pushLink(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.schedByKind[ev.kind]++
	e.place(ev)
}

// place files an already-sequenced event into the tier its tick selects.
func (e *Engine) place(ev event) {
	if s := e.slot(ev.at, ev.lkey, ev.seq); s != nil {
		*s = ev
	} else {
		e.overflow.push(ev)
	}
}

// pushPacket schedules a finishTx or an arrival, nine events in ten, by
// writing it into its slot: built on the stack, it would be written twice
// and reloaded before its stores had landed.
func (e *Engine) pushPacket(kind eventKind, at int64, lkey int32, seq uint64, p *port, pkt *Packet, node NodeID) {
	at = max(at, e.now)
	e.schedByKind[kind]++
	ev := e.slot(at, lkey, seq)
	if ev == nil {
		e.overflow.push(event{at: at, seq: seq, port: p, pkt: pkt, lkey: lkey, node: int32(node), kind: kind})
		return
	}
	ev.at, ev.seq, ev.port, ev.pkt, ev.flow = at, seq, p, pkt, nil
	ev.lkey, ev.node, ev.kind, ev.fn = lkey, int32(node), kind, 0
}

// slot returns the slot for an event (at, lkey, seq) in the current tick's
// slab, whose calendar it files the key in, or in an in-span tick's wheel
// bucket; the caller writes the whole event there. The far future gets
// nil: the overflow heap takes whole events. The clock never trails the
// current tick, so it is the only one at or before it.
func (e *Engine) slot(at int64, lkey int32, seq uint64) *event {
	tick := at >> bucketShift
	switch {
	case tick == e.curTick:
		e.tickEvs = grow1(e.tickEvs)
		e.cal.file(e.orderKey(at, lkey, seq))
		return &e.tickEvs[len(e.tickEvs)-1]
	case tick > e.curTick && tick < e.curTick+numBuckets:
		b := tick & bucketMask
		if w := e.wheel[b]; len(w) == slabPerBucket && cap(w) == slabPerBucket && len(e.spare) > 0 {
			e.wheel[b] = append(e.spare[len(e.spare)-1], w...)
			e.spare = e.spare[:len(e.spare)-1]
			clear(w)
		}
		e.wheel[b] = grow1(e.wheel[b])
		e.wheelCount++
		e.scanFrom = min(e.scanFrom, tick)
		return &e.wheel[b][len(e.wheel[b])-1]
	case tick > e.curTick:
		return nil
	}
	panic("netsim: event scheduled before the current tick")
}

// grow1 extends s by one slot, for the caller to overwrite.
func grow1(s []event) []event {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	return append(s, event{})
}

// At schedules fn at absolute time t (clamped to now for past times).
func (e *Engine) At(t int64, fn func()) { e.push(event{at: t, kind: evFunc, fn: e.funcSlot(fn)}) }

// funcSlot parks fn in a free slot of the funcs table and returns it.
func (e *Engine) funcSlot(fn func()) int32 {
	if k := len(e.freeFuncs); k > 0 {
		i := e.freeFuncs[k-1]
		e.freeFuncs = e.freeFuncs[:k-1]
		e.funcs[i] = fn
		return i
	}
	e.funcs = append(e.funcs, fn)
	return int32(len(e.funcs) - 1)
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

func (e *Engine) afterFinishTx(d int64, p *port, pkt *Packet) {
	e.pushPacket(evFinishTx, e.now+d, -1, nextSeq(&e.seq), p, pkt, 0)
}

func (e *Engine) afterInject(d int64, fs *flowState) {
	e.push(event{at: e.now + d, kind: evInject, flow: fs})
}

// nextTick reports the earliest pending tick after curTick. With buckets
// in-span the scan walks at most numBuckets empty slots (cheap: one slice
// length check each, amortized far below one per event); with only
// overflow pending it jumps straight to the overflow's earliest tick. The
// tiers strictly partition time, so the first non-empty one owns it.
func (e *Engine) nextTick() (int64, bool) {
	if e.wheelCount > 0 {
		t := max(e.curTick+1, e.scanFrom)
		for len(e.wheel[t&bucketMask]) == 0 {
			t++
		}
		e.scanFrom = t
		return t, true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].at >> bucketShift, true
	}
	return 0, false
}

// NextEventAt reports the earliest pending event time, if any. The
// parallel coordinator uses it between windows to skip empty lookahead
// spans.
func (e *Engine) NextEventAt() (int64, bool) {
	if off := e.cal.first(); off >= 0 {
		return e.curTick<<bucketShift + int64(off), true
	}
	if e.wheelCount > 0 {
		t, _ := e.nextTick()
		b := e.wheel[t&bucketMask]
		min := b[0].at
		for _, ev := range b[1:] {
			if ev.at < min {
				min = ev.at
			}
		}
		return min, true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].at, true
	}
	return 0, false
}

// advance loads the given tick, whose caller guarantees the current one is
// drained: the tick's bucket is copied into the payload slab (one slab,
// reused tick after tick, so it stays in cache and grows once) and gives
// the spares its array if it outgrew its piece, the tick's keys are filed
// into its calendar, and overflow events that came in-range cascade into
// the wheel or the tick.
func (e *Engine) advance(tick int64) {
	e.curTick = tick
	b := tick & bucketMask
	w := e.wheel[b]
	clear(e.tickEvs)
	e.tickEvs = append(e.tickEvs[:0], w...)
	e.wheelCount -= len(w)
	clear(w)
	if cap(w) > slabPerBucket {
		e.spare = append(e.spare, w[:0])
		w = e.piece(b)
	}
	e.wheel[b] = w[:0]
	e.cal.reset()
	for i := range e.tickEvs {
		ev := &e.tickEvs[i]
		e.cal.file(e.orderKey(ev.at, ev.lkey, ev.seq))
	}
	for len(e.overflow) > 0 && e.overflow[0].at>>bucketShift < tick+numBuckets {
		e.place(e.overflow.pop())
	}
}

// Run executes events until the queue drains or the clock passes `until`
// (inclusive). Events scheduled beyond the horizon stay queued, including
// the rest of a partially dispatched tick, and a tick that starts past the
// horizon is not loaded. It returns the number of events executed.
func (e *Engine) Run(until int64) int {
	n := 0
	for {
		off := e.cal.first()
		if off < 0 {
			t, more := e.nextTick()
			if !more || t<<bucketShift > until {
				break
			}
			e.advance(t)
			continue
		}
		at := e.curTick<<bucketShift + int64(off)
		if at > until {
			break
		}
		i := e.cal.pop(off)
		e.now = at
		e.dispatch(&e.tickEvs[i])
		n++
		// Flush telemetry in 4096-event chunks so a live scrape sees
		// progress without an atomic add per event.
		if n&4095 == 0 {
			e.eventsRun += 4096
			e.flushStats()
		}
	}
	e.eventsRun += int64(n & 4095)
	e.flushStats()
	if e.now < until {
		e.now = until
	}
	return n
}

// dispatch executes one event. Typed events carry their target state
// directly — no closure environment, no indirect call. ev may point into
// tickEvs, which a handler's same-tick push can regrow: every field is read
// before the handler runs.
func (e *Engine) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		fn := e.funcs[ev.fn]
		e.funcs[ev.fn] = nil
		e.freeFuncs = append(e.freeFuncs, ev.fn)
		fn()
	case evFinishTx:
		e.net.finishTx(ev.port, ev.pkt)
	case evArrive:
		e.net.arrive(NodeID(ev.node), ev.pkt)
	case evInject:
		e.net.hosts[ev.flow.spec.Src].inject(ev.flow)
	case evStart:
		e.net.hosts[ev.flow.spec.Src].startFlow(ev.flow)
	case evDCQCNAlpha:
		e.net.dcqcnAlphaTick(e, ev.flow)
	case evDCQCNRate:
		e.net.dcqcnRateTick(e, ev.flow)
	case evRTO:
		e.net.hosts[ev.flow.spec.Src].rtoTick(ev.flow)
	}
}

// flushStats folds the engine's plain accumulators into the simulation's
// telemetry handles (all nil-safe no-ops when telemetry is disabled). The
// depth gauges are high-water marks: wheel occupancy counts the current
// tick plus the in-span buckets, overflow counts the far-future heap.
func (e *Engine) flushStats() {
	if e.net == nil {
		return
	}
	st := &e.net.stats
	if d := e.eventsRun - e.eventsFlushed; d != 0 {
		st.Events.Add(d)
		e.eventsFlushed = e.eventsRun
	}
	st.WheelDepth.SetMax(int64(e.cal.n + e.wheelCount))
	st.OverflowDepth.SetMax(int64(len(e.overflow)))
	for k, c := range st.EventsByKind {
		if d := e.schedByKind[k] - e.flushedByKind[k]; d != 0 {
			c.Add(d)
			e.flushedByKind[k] = e.schedByKind[k]
		}
	}
}
