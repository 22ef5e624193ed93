package netsim

import (
	"container/heap"
	"math"
	"reflect"
	"sort"
	"testing"
)

// normalizeTrace sorts each episode's participant-flow list: it is built
// by map iteration, so its order is not deterministic even between two
// runs of the same scheduler and must not fail the comparison.
func normalizeTrace(tr *Trace) {
	for i := range tr.Episodes {
		f := tr.Episodes[i].Flows
		sort.Slice(f, func(a, b int) bool { return f[a] < f[b] })
	}
}

// The timing wheel must dispatch in exactly the order one binary min-heap
// over the whole queue would: the total order (at, lkey, seq). Two
// test-side oracles pin it, and neither lives in the engine:
//
//   - heapScheduler, a standalone At/After/Now scheduler over
//     container/heap, replays the adversarial event storm;
//   - runHeapOracle runs a whole serial simulation, typed events and all,
//     with a dispatch loop that pops the engine's overflow heap as the
//     entire queue — the scheduler the wheel replaced.

// scheduler is what the storm needs of an event scheduler.
type scheduler interface {
	At(t int64, fn func())
	After(d int64, fn func())
	Now() int64
	Run(until int64) int
}

// heapScheduler keeps every pending func in one binary min-heap ordered by
// (at, lkey, seq): At gives lkey -1 and a seq counting At calls, atLink
// takes both from its caller. A past time clamps to now and Run leaves the
// clock at its horizon, as the Engine does.
type heapScheduler struct {
	now int64
	seq uint64
	q   oracleQueue
}

type oracleEvent struct {
	at   int64
	lkey int32
	seq  uint64
	fn   func()
}

type oracleQueue []oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].lkey != q[j].lkey {
		return q[i].lkey < q[j].lkey
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func (s *heapScheduler) Now() int64 { return s.now }

func (s *heapScheduler) At(t int64, fn func()) {
	s.seq++
	heap.Push(&s.q, oracleEvent{at: max(t, s.now), lkey: -1, seq: s.seq, fn: fn})
}

func (s *heapScheduler) atLink(t int64, lkey int32, seq uint64, fn func()) {
	heap.Push(&s.q, oracleEvent{at: max(t, s.now), lkey: lkey, seq: seq, fn: fn})
}

// atLink schedules fn as a link event with the given order key, as a
// packet arrival over directed link lkey would be.
func (e *Engine) atLink(t int64, lkey int32, seq uint64, fn func()) {
	e.pushLink(event{at: t, kind: evFunc, fn: e.funcSlot(fn), lkey: lkey, seq: seq})
}

func (s *heapScheduler) After(d int64, fn func()) { s.At(s.now+d, fn) }

func (s *heapScheduler) Run(until int64) int {
	n := 0
	for len(s.q) > 0 && s.q[0].at <= until {
		ev := heap.Pop(&s.q).(oracleEvent)
		s.now = ev.at
		ev.fn()
		n++
	}
	s.now = max(s.now, until)
	return n
}

// pinHeapOracle makes n's serial engine file every event into its overflow
// heap: with curTick far below any event's tick, place finds every tick
// past the wheel span. Call it before anything is scheduled, then run n
// with runHeapOracle.
func pinHeapOracle(n *Network) { n.eng.curTick = math.MinInt64 / 2 }

// runHeapOracle is Network.Run on a pinned engine, its dispatch loop the
// pre-wheel one: pop the heap's minimum, dispatch it, repeat.
func (n *Network) runHeapOracle(t *testing.T, until int64) *Trace {
	t.Helper()
	e := n.eng
	if e.curTick != math.MinInt64/2 || e.wheelCount != 0 || len(e.tickEvs) != 0 {
		t.Fatal("runHeapOracle: the engine was not pinned before events were scheduled")
	}
	for _, sh := range n.shards {
		if len(sh.flowDrops) < len(n.trace.Flows) {
			sh.flowDrops = make([]int64, len(n.trace.Flows))
		}
	}
	n.scheduleQueueSampling(until)
	for len(e.overflow) > 0 && e.overflow[0].at <= until {
		ev := e.overflow.pop()
		e.now = ev.at
		e.dispatch(&ev)
		n.trace.Events++
	}
	if e.wheelCount != 0 || len(e.tickEvs) != 0 {
		t.Fatal("runHeapOracle: an event bypassed the heap")
	}
	e.now = max(e.now, until)
	n.finalize(until)
	n.trace.DurationNs = until
	return n.trace
}

// execRecord is one executed event's identity for order comparison.
type execRecord struct {
	at  int64
	id  int
	now int64
}

// scheduleStorm seeds a scheduler with a fixed pseudo-random event storm
// that records its execution order into *log. Events rescheduling
// themselves, ties, bucket-boundary times, past-time clamps and
// far-future times are all in the mix. The storm is deterministic given
// the execution order, so the same script can be replayed on any
// scheduler (wheel, heap oracle, windowed parallel runner) and compared.
func scheduleStorm(e scheduler, log *[]execRecord) {
	rng := rngState{s: 0x9e3779b97f4a7c15}
	id := 0
	var reschedule func(depth int) func()
	reschedule = func(depth int) func() {
		me := id
		id++
		return func() {
			*log = append(*log, execRecord{at: e.Now(), id: me, now: e.Now()})
			if depth <= 0 {
				return
			}
			// Fan out: one near event, sometimes a tie, sometimes far.
			d := int64(rng.next() % 3000) // spans several buckets
			e.After(d, reschedule(depth-1))
			if rng.next()%4 == 0 {
				e.After(d, reschedule(depth-1)) // same-time tie
			}
			if rng.next()%16 == 0 {
				e.After(int64(numBuckets<<bucketShift)+int64(rng.next()%100000),
					reschedule(depth-1)) // beyond the wheel span
			}
			if rng.next()%8 == 0 {
				e.At(e.Now()-10, reschedule(depth-1)) // past: clamps to now
			}
		}
	}
	for i := 0; i < 64; i++ {
		t := int64(rng.next() % 5000)
		if i%7 == 0 {
			t = int64(i/7) << bucketShift // exact bucket boundaries
		}
		e.At(t, reschedule(6))
	}
}

// driveScript runs the storm in horizon slices, to exercise mid-bucket
// clamping and re-entry, and returns the execution log.
func driveScript(e scheduler) []execRecord {
	var log []execRecord
	scheduleStorm(e, &log)
	for _, until := range []int64{100, 4096, 4097, 1 << 14, 1 << 18, 1 << 30} {
		e.Run(until)
	}
	return log
}

// TestEngineWheelMatchesHeapOracle replays an identical event storm
// through the wheel and the heap oracle and requires event-for-event
// identical execution.
func TestEngineWheelMatchesHeapOracle(t *testing.T) {
	wheel := driveScript(NewEngine())
	heap := driveScript(&heapScheduler{})
	if len(wheel) == 0 {
		t.Fatal("script executed no events")
	}
	if len(wheel) != len(heap) {
		t.Fatalf("executed %d events on the wheel, %d on the heap", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("execution diverges at event %d: wheel %+v vs heap %+v", i, wheel[i], heap[i])
		}
	}
}

// seamScheduler is a scheduler that also takes link events.
type seamScheduler interface {
	scheduler
	atLink(t int64, lkey int32, seq uint64, fn func())
}

// scheduleTickSeams loads one tick, T, from every place an event can reach
// it from, with ties on at throughout and local and link events mixed:
// from time 0 (the overflow heap, cascading into T's bucket or, with
// stepped false, straight into T as the wheel jumps there), from
// dispatches in earlier ticks (T's wheel bucket), and from dispatches
// inside T itself (pushed while T runs). It returns T's start and a
// function that schedules more of the same from outside a dispatch, for
// use between Run calls that stop before T ends.
func scheduleTickSeams(e seamScheduler, seed uint64, stepped bool, log *[]execRecord) (int64, func(n int)) {
	rng := rngState{s: seed}
	base := int64(2*numBuckets) << bucketShift
	ats := [...]int64{base, base + 100, base + 100, base + 101, base + 255}
	var lseq [3]uint64
	id := 0
	var add func(n, depth int)
	rec := func(depth int) func() {
		me := id
		id++
		return func() {
			*log = append(*log, execRecord{at: e.Now(), id: me, now: e.Now()})
			if depth > 0 && rng.next()%2 == 0 {
				add(1+int(rng.next()%3), depth-1)
			}
		}
	}
	add = func(n, depth int) {
		for ; n > 0; n-- {
			at := ats[rng.next()%uint64(len(ats))]
			if e.Now() >= base {
				at = e.Now() + int64(rng.next()%uint64(base+256-e.Now())) // still inside T
				if rng.next()%3 == 0 {
					at = e.Now() // a tie with the running event
				}
			}
			if lk := int32(rng.next()%4) - 1; lk < 0 {
				e.At(at, rec(depth))
			} else {
				lseq[lk]++
				e.atLink(at, lk, lseq[lk], rec(depth))
			}
		}
	}
	add(24, 3)
	if stepped {
		for _, d := range []int64{300 * tickNs, tickNs, 1} {
			e.At(base-d, func() { add(12, 3) })
		}
	}
	return base, func(n int) { add(n, 3) }
}

// TestWheelTickSeamsMatchHeapOracle pins the dispatch order where a tick's
// key heap meets the rest: events that tie on at but came in through the
// overflow cascade, the wheel bucket and pushes during the tick's own
// dispatch, local and link events mixed, and Runs that stop inside the
// tick and take new pushes into it before they resume. Every seed must
// replay event-for-event as the heap oracle does.
func TestWheelTickSeamsMatchHeapOracle(t *testing.T) {
	drive := func(e seamScheduler, seed uint64, stepped bool) []execRecord {
		var log []execRecord
		base, more := scheduleTickSeams(e, seed, stepped, &log)
		for _, until := range []int64{base - 1, base + 99, base + 100, base + 100, base + 200} {
			e.Run(until)
			more(3)
		}
		e.Run(base + 1<<20)
		return log
	}
	for seed := uint64(1); seed <= 64; seed++ {
		for _, stepped := range []bool{false, true} {
			got := drive(NewEngine(), seed*0x9e3779b97f4a7c15, stepped)
			want := drive(&heapScheduler{}, seed*0x9e3779b97f4a7c15, stepped)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d stepped=%v: the wheel's order diverges from the heap oracle's (%d vs %d events)",
					seed, stepped, len(got), len(want))
			}
		}
	}
}

// TestSimulationWheelMatchesHeapOracle runs full simulations — DCQCN
// workload, DCTCP flows, a tail-dropping incast — on the wheel and through
// the heap oracle's dispatch loop, and requires deeply identical traces
// (every packet record, CE mark, drop, episode, queue sample and flow
// stat, and the event count).
func TestSimulationWheelMatchesHeapOracle(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.build(t, 1, nil).Run(sc.horizon)
			want := sc.build(t, 1, pinHeapOracle).runHeapOracle(t, sc.horizon)
			if got.TotalPackets() == 0 {
				t.Fatal("scenario moved no packets")
			}
			if sc.name == "droptail-incast" && len(got.DropLog) == 0 {
				t.Fatal("scenario dropped no packets")
			}
			normalizeTrace(got)
			normalizeTrace(want)
			if got.Events != want.Events {
				t.Errorf("wheel ran %d events, heap %d", got.Events, want.Events)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("wheel and heap traces differ")
			}
		})
	}
}

// TestShardedEngineStormMatchesOracle is the storm oracle's multi-shard
// mode: the identical adversarial script (same-tick ties, bucket
// boundaries, past-time clamps, beyond-wheel-span hops) is seeded on every
// shard engine of a sharded network, then executed by the windowed
// parallel runner — whose lookahead barriers slice Run into many small
// horizons at arbitrary offsets. Each shard must replay the storm in
// exactly the order the heap oracle does, with worker goroutines and in
// lockstep.
func TestShardedEngineStormMatchesOracle(t *testing.T) {
	const horizon = 1 << 22 // past the deepest far-future chain
	ref := &heapScheduler{}
	var refLog []execRecord
	scheduleStorm(ref, &refLog)
	ref.Run(horizon)
	if len(refLog) == 0 {
		t.Fatal("storm executed no events")
	}

	run := func(shards int, lockstep bool) [][]execRecord {
		topo, err := Dumbbell(8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		cfg.Shards = shards
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.lockstep = lockstep
		logs := make([][]execRecord, len(n.shards))
		for i, sh := range n.shards {
			scheduleStorm(sh.eng, &logs[i])
		}
		n.Run(horizon)
		return logs
	}
	for _, mode := range []struct {
		name     string
		shards   int
		lockstep bool
	}{
		{name: "goroutines", shards: 3},
		{name: "lockstep", shards: 4, lockstep: true},
	} {
		for i, lg := range run(mode.shards, mode.lockstep) {
			if !reflect.DeepEqual(lg, refLog) {
				t.Errorf("%s: shard %d storm order diverges from the heap oracle (%d vs %d events)",
					mode.name, i, len(lg), len(refLog))
			}
		}
	}
}

// calendarStorm is a seeded schedule aimed at the tick calendar: bursts of
// 8–16 events on one nanosecond, local events and link events on
// interleaved lkeys — one link's seqs pushed in reverse — so keys land at
// a list's head, in its middle and at its tail; dispatches that push local
// events at now, which must run ahead of link events already pending at
// the same instant; and events into the same tick, across tick
// boundaries and past the wheel span, through the overflow cascade. The
// same seed replays on any seamScheduler.
type calendarStorm struct {
	e      seamScheduler
	rng    rngState
	log    []execRecord
	lseq   [6]uint64
	id     int
	linkAt map[int64]int // link events pending per instant
	// ahead counts local pushes at now with a link event pending at now;
	// far counts pushes past the wheel span.
	ahead, far int
}

func newCalendarStorm(e seamScheduler, seed uint64) *calendarStorm {
	s := &calendarStorm{e: e, rng: rngState{s: seed}, linkAt: map[int64]int{}}
	span := int64(numBuckets) * tickNs
	s.burst(0, 12, 4)
	s.burst(tickNs-1, 9, 4) // tick 0's last nanosecond
	s.burst(tickNs, 10, 4)  // tick 1's first
	s.burst(span+3, 8, 3)   // past the span: waits in the overflow heap
	s.burst(3*span/2+tickNs-1, 8, 3)
	return s
}

// add schedules one storm event at at: local when lk < 0, else a link
// event on lk with sequence seq. Its dispatch logs it and, while depth
// lasts, fans out.
func (s *calendarStorm) add(at int64, lk int32, seq uint64, depth int) {
	me := s.id
	s.id++
	fn := func() {
		now := s.e.Now()
		s.log = append(s.log, execRecord{at: now, id: me, now: now})
		if lk >= 0 {
			s.linkAt[now]--
		}
		if depth > 0 && s.id < 20_000 {
			s.fanOut(depth - 1)
		}
	}
	at = max(at, s.e.Now())
	if at-s.e.Now() >= int64(numBuckets)*tickNs {
		s.far++
	}
	if lk < 0 {
		if s.linkAt[at] > 0 && at == s.e.Now() {
			s.ahead++
		}
		s.e.At(at, fn)
		return
	}
	s.linkAt[at]++
	s.e.atLink(at, lk, seq, fn)
}

// link schedules a link event on a random lkey with that link's next seq.
func (s *calendarStorm) link(at int64, depth int) {
	lk := int32(s.rng.next() % uint64(len(s.lseq)))
	s.lseq[lk]++
	s.add(at, lk, s.lseq[lk], depth)
}

// burst schedules n events on one instant: locals, links on random lkeys,
// and a run of one link's seqs in reverse, all interleaved.
func (s *calendarStorm) burst(at int64, n, depth int) {
	lk := int32(s.rng.next() % uint64(len(s.lseq)))
	rev := 2 + int(s.rng.next()%3)
	base := s.lseq[lk]
	s.lseq[lk] += uint64(rev)
	for i := 0; i < n; i++ {
		switch r := s.rng.next() % 3; {
		case r == 0:
			s.add(at, -1, 0, depth)
		case r == 1 && rev > 0:
			s.add(at, lk, base+uint64(rev), depth)
			rev--
		default:
			s.link(at, depth)
		}
	}
}

// fanOut schedules what one dispatched storm event causes.
func (s *calendarStorm) fanOut(depth int) {
	now := s.e.Now()
	switch r := s.rng.next() % 10; {
	case r < 3:
		s.add(now, -1, 0, depth) // ahead of the links pending at now
	case r < 4:
		s.link(now, depth)
	case r < 6:
		s.link(now+int64(s.rng.next()%uint64(tickNs)), depth)
	case r < 7:
		s.add(now|(tickNs-1)+int64(s.rng.next()%3), -1, 0, depth) // a tick's end or the next's start
	case r < 9:
		s.burst(now+int64(s.rng.next()%uint64(3*tickNs)), 8+int(s.rng.next()%9), depth)
	default:
		s.link(now+int64(numBuckets)*tickNs+int64(s.rng.next()%uint64(8*tickNs)), depth)
	}
}

// TestTickCalendarStormMatchesHeapOracle replays the calendar storm on an
// engine, in Run slices that end on busy instants, and on a 2-shard
// network's engines under the windowed runner; every log must match the
// heap oracle's event for event. The oracle's run must show the storm's
// shape: 8 or more events on one nanosecond, local pushes at now that
// overtook pending link events, and overflow traffic.
func TestTickCalendarStormMatchesHeapOracle(t *testing.T) {
	const horizon = 1 << 22
	slices := []int64{0, tickNs - 1, tickNs, 3*tickNs + 7, 1 << 16, int64(numBuckets)*tickNs + 3, horizon}
	drive := func(e seamScheduler, seed uint64) *calendarStorm {
		s := newCalendarStorm(e, seed)
		for _, until := range slices {
			e.Run(until)
		}
		return s
	}
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed * 0x9e3779b97f4a7c15
		want := drive(&heapScheduler{}, seed)
		perNs, most := map[int64]int{}, 0
		for _, r := range want.log {
			perNs[r.at]++
			most = max(most, perNs[r.at])
		}
		if most < 8 || want.ahead == 0 || want.far == 0 || len(want.log) < 1000 {
			t.Fatalf("seed %x: storm too tame: %d events, %d at most on one ns, %d locals ahead of links, %d past the span",
				seed, len(want.log), most, want.ahead, want.far)
		}
		if got := drive(NewEngine(), seed); !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %x: the engine's order diverges from the heap oracle's (%d vs %d events)",
				seed, len(got.log), len(want.log))
		}

		topo, err := Dumbbell(8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		cfg.Shards = 2
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		storms := make([]*calendarStorm, len(n.shards))
		for i, sh := range n.shards {
			storms[i] = newCalendarStorm(sh.eng, seed)
		}
		n.Run(horizon)
		for i, s := range storms {
			if !reflect.DeepEqual(s.log, want.log) {
				t.Errorf("seed %x: shard %d diverges from the heap oracle (%d vs %d events)",
					seed, i, len(s.log), len(want.log))
			}
		}
	}
}
