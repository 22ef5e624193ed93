// Package netsim is a from-scratch discrete-event network simulator
// standing in for the paper's NS-3 environment (§7: fat-tree k=4, 100 Gbps
// links, 1 µs per-hop latency, RED/ECN marking, DCQCN congestion control).
// It produces the observables the evaluation consumes: per-host egress
// packet streams, per-port queue-length series, CE-marked packet logs and
// ground-truth congestion episodes.
package netsim

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
//   - dispatch drains the current tick through `cur`, a tiny (at, seq)
//     min-heap: advancing to a tick heapifies its bucket (O(m)) plus any
//     overflow events that became in-range, and same-tick events scheduled
//     *during* dispatch sift into `cur` directly.
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
	// numBuckets sets the wheel span: 1024 ticks ≈ 262 µs, wide enough
	// that per-packet events, CNP pacing (25 µs) and both DCQCN timers
	// (55/150 µs) schedule without touching the overflow heap.
	numBuckets = 1 << 10
	bucketMask = numBuckets - 1
)

// Engine is a deterministic discrete-event scheduler with nanosecond time.
// All simulator periodic and per-packet work is typed events (no closure
// allocation, no indirect call): serialization completion, link arrival,
// flow injection and start, DCQCN alpha/rate timers and go-back-N RTO
// ticks. Cold or external scheduling uses plain funcs.
type Engine struct {
	now int64
	seq uint64
	// net is set by Network to dispatch typed events; shardIdx names the
	// engine's shard for per-shard telemetry (0 in serial runs).
	net      *Network
	shardIdx int

	// curTick is the tick whose bucket has been moved into cur; every
	// pending event at tick ≤ curTick lives in cur, ticks in
	// (curTick, curTick+numBuckets) live in the wheel, later ones overflow.
	curTick    int64
	cur        eventHeap
	wheel      [][]event // numBuckets unordered per-tick buckets
	wheelCount int       // events parked in wheel buckets
	overflow   eventHeap // events ≥ numBuckets ticks ahead

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

// eventKindNames labels the scheduled-events-by-kind telemetry cells.
var eventKindNames = [numEventKinds]string{
	"func", "finish_tx", "arrive", "inject", "start",
	"dcqcn_alpha", "dcqcn_rate", "rto",
}

type event struct {
	at   int64
	seq  uint64 // tiebreak: engine-local FIFO, or per-link sequence
	kind eventKind
	// lkey is the total-order class: -1 for local events (ordered by the
	// engine-local seq), or the directed-link id for link events (packet
	// arrivals), which order by (lkey, sender's per-link seq) so a sharded
	// run reproduces the serial dispatch order exactly.
	// It packs into the comparator as a single tiebreak field.
	lkey int32
	fn   func()
	port *port
	pkt  *Packet
	node NodeID
	flow *flowState
	host *host
}

// eventHeap is a typed binary min-heap ordered by (at, lkey, seq). It is
// hand-rolled rather than built on container/heap because heap.Push boxes
// every event into an interface — one heap allocation per scheduled event.
// It serves two roles: the current-tick dispatch heap and the far-future
// overflow store. push/pop/heapify reuse the same backing array, so both
// reach a steady state with no per-event allocation at all.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

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

// heapify establishes the heap order over arbitrary contents (Floyd).
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// NewEngine returns an engine at time 0. Every wheel bucket starts with a
// few slots carved out of one contiguous slab, so the schedule path is
// allocation-free from the first event — not just after every slot has
// been touched once — and adjacent buckets share cache lines. Buckets that
// outgrow their slab piece fall back to ordinary append growth.
func NewEngine() *Engine {
	const slabPerBucket = 4
	slab := make([]event, numBuckets*slabPerBucket)
	wheel := make([][]event, numBuckets)
	for i := range wheel {
		wheel[i] = slab[i*slabPerBucket : i*slabPerBucket : (i+1)*slabPerBucket]
	}
	return &Engine{wheel: wheel}
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
	e.seq++
	ev.seq = e.seq
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
// Ticks at or before curTick (only reachable for the tick being dispatched,
// since at ≥ now) join the dispatch heap so same-tick scheduling stays in
// order; in-span ticks append to their wheel bucket in O(1); the far future
// waits in the overflow heap.
func (e *Engine) place(ev event) {
	tick := ev.at >> bucketShift
	switch {
	case tick <= e.curTick:
		e.cur.push(ev)
	case tick < e.curTick+numBuckets:
		b := tick & bucketMask
		e.wheel[b] = append(e.wheel[b], ev)
		e.wheelCount++
	default:
		e.overflow.push(ev)
	}
}

// At schedules fn at absolute time t (clamped to now for past times).
func (e *Engine) At(t int64, fn func()) { e.push(event{at: t, kind: evFunc, fn: fn}) }

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

func (e *Engine) afterFinishTx(d int64, p *port, pkt *Packet) {
	e.push(event{at: e.now + d, kind: evFinishTx, port: p, pkt: pkt})
}

func (e *Engine) afterInject(d int64, h *host, fs *flowState) {
	e.push(event{at: e.now + d, kind: evInject, host: h, flow: fs})
}

// NextEventAt reports the earliest pending event time, if any. The
// parallel coordinator uses it between windows to skip empty lookahead
// spans; the scan cost is bounded by one pass over the wheel's buckets
// (cheap length checks), and during active traffic the first non-empty
// bucket is near the current tick.
func (e *Engine) NextEventAt() (int64, bool) {
	// The tiers strictly partition time — cur holds ticks ≤ curTick, the
	// wheel ticks in (curTick, curTick+numBuckets), overflow everything
	// later — so the first non-empty tier owns the minimum.
	if len(e.cur) > 0 {
		return e.cur[0].at, true
	}
	if e.wheelCount > 0 {
		for t := e.curTick + 1; ; t++ {
			b := e.wheel[t&bucketMask]
			if len(b) == 0 {
				continue
			}
			min := b[0].at
			for _, ev := range b[1:] {
				if ev.at < min {
					min = ev.at
				}
			}
			return min, true
		}
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].at, true
	}
	return 0, false
}

// advance turns the wheel to the given tick: overflow events that came
// in-range cascade into the wheel (or straight into cur), then the tick's
// bucket is folded into cur and heapified. The caller guarantees cur holds
// no event earlier than the tick (it is drained, or drained up to the
// horizon).
func (e *Engine) advance(tick int64) {
	e.curTick = tick
	for len(e.overflow) > 0 && e.overflow[0].at>>bucketShift < tick+numBuckets {
		ev := e.overflow.pop()
		if ev.at>>bucketShift <= tick {
			e.cur = append(e.cur, ev) // heapified below
		} else {
			b := ev.at >> bucketShift & bucketMask
			e.wheel[b] = append(e.wheel[b], ev)
			e.wheelCount++
		}
	}
	b := tick & bucketMask
	if s := e.wheel[b]; len(s) > 0 {
		e.cur = append(e.cur, s...)
		e.wheelCount -= len(s)
		clear(s)
		e.wheel[b] = s[:0]
	}
	e.cur.heapify()
}

// advanceNext turns the wheel to the earliest pending tick. With buckets
// in-span the scan walks at most numBuckets empty slots (cheap: one slice
// length check each, amortized far below one per event); with only
// overflow pending it jumps straight to the overflow's earliest tick.
func (e *Engine) advanceNext() {
	if e.wheelCount == 0 {
		e.advance(e.overflow[0].at >> bucketShift)
		return
	}
	t := e.curTick + 1
	for len(e.wheel[t&bucketMask]) == 0 {
		t++
	}
	e.advance(t)
}

// Run executes events until the queue drains or the clock passes `until`
// (inclusive). Events scheduled beyond the horizon stay queued (including
// partially dispatched ticks: cur persists across calls). It returns the
// number of events executed.
func (e *Engine) Run(until int64) int {
	n := 0
	for {
		for len(e.cur) == 0 {
			if e.wheelCount == 0 && len(e.overflow) == 0 {
				goto drained
			}
			e.advanceNext()
		}
		if e.cur[0].at > until {
			break
		}
		ev := e.cur.pop()
		e.now = ev.at
		e.dispatch(ev)
		n++
		// Flush telemetry in 4096-event chunks so a live scrape sees
		// progress without an atomic add per event.
		if n&4095 == 0 {
			e.eventsRun += 4096
			e.flushStats()
		}
	}
drained:
	e.eventsRun += int64(n & 4095)
	e.flushStats()
	if e.now < until {
		e.now = until
	}
	return n
}

// dispatch executes one event. Typed events carry their target state
// directly — no closure environment, no indirect call.
func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evFinishTx:
		e.net.finishTx(ev.port, ev.pkt)
	case evArrive:
		e.net.arrive(ev.node, ev.pkt)
	case evInject:
		ev.host.inject(ev.flow)
	case evStart:
		ev.host.startFlow(ev.flow)
	case evDCQCNAlpha:
		e.net.dcqcnAlphaTick(e, ev.flow)
	case evDCQCNRate:
		e.net.dcqcnRateTick(e, ev.flow)
	case evRTO:
		ev.host.rtoTick(ev.flow)
	}
}

// flushStats folds the engine's plain accumulators into the simulation's
// telemetry handles (all nil-safe no-ops when telemetry is disabled). The
// depth gauges are high-water marks: wheel occupancy counts cur plus the
// in-span buckets, overflow counts the far-future heap.
func (e *Engine) flushStats() {
	if e.net == nil {
		return
	}
	st := &e.net.stats
	if d := e.eventsRun - e.eventsFlushed; d != 0 {
		st.Events.Add(d)
		if v := st.ShardEvents; v != nil {
			i := e.shardIdx
			if i >= v.Len() {
				i = v.Len() - 1 // fold oversized shard counts into the last cell
			}
			v.At(i).Add(d)
		}
		e.eventsFlushed = e.eventsRun
	}
	st.WheelDepth.SetMax(int64(len(e.cur) + e.wheelCount))
	st.OverflowDepth.SetMax(int64(len(e.overflow)))
	if v := st.EventsByKind; v != nil {
		for k := range e.schedByKind {
			if d := e.schedByKind[k] - e.flushedByKind[k]; d != 0 {
				v.At(k).Add(d)
				e.flushedByKind[k] = e.schedByKind[k]
			}
		}
	}
}
