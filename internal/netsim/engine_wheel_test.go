package netsim

import (
	"reflect"
	"testing"
	"unsafe"
)

// Edge cases of the timing-wheel geometry: tick boundaries, FIFO ties,
// horizon clamping mid-bucket, overflow cascade and long idle jumps.

func collectOrder(t *testing.T, e *Engine, schedule func(record func(id int) func())) []int {
	t.Helper()
	var got []int
	schedule(func(id int) func() {
		return func() { got = append(got, id) }
	})
	return got
}

// TestWheelSameTickFIFOAcrossBoundary schedules ties and near-ties
// straddling a bucket boundary and checks the exact (at, seq) order.
func TestWheelSameTickFIFOAcrossBoundary(t *testing.T) {
	e := NewEngine()
	b := 3 * tickNs // an exact bucket boundary
	got := collectOrder(t, e, func(rec func(int) func()) {
		e.At(b, rec(3))   // boundary tick, first
		e.At(b-1, rec(1)) // last ns of the previous bucket
		e.At(b, rec(4))   // tie with 3: FIFO
		e.At(b-1, rec(2)) // tie with 1: FIFO
		e.At(b+1, rec(5)) // next ns, same bucket as 3/4
		e.Run(10 * tickNs)
	})
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestWheelSameTimeAcrossTiers pins one timestamp reached from all three
// tiers: scheduled in-span, scheduled beyond the span (overflow), and
// scheduled during dispatch of that very tick. Seq order must hold.
func TestWheelSameTimeAcrossTiers(t *testing.T) {
	e := NewEngine()
	far := int64(numBuckets)*tickNs + 5*tickNs // beyond the initial span
	got := collectOrder(t, e, func(rec func(int) func()) {
		e.At(far, rec(1))    // lands in overflow
		e.At(far, rec(2))    // overflow tie
		e.At(far-1, func() { // runs just before: schedules into the live tick
			e.At(far, rec(3)) // same time, higher seq → after 1 and 2
		})
		e.Run(far + tickNs)
	})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestWheelHorizonClampsMidBucket stops Run inside a bucket that holds
// events on both sides of the horizon, then resumes.
func TestWheelHorizonClampsMidBucket(t *testing.T) {
	e := NewEngine()
	base := 7 * tickNs
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	e.At(base+10, rec(1))
	e.At(base+20, rec(2)) // same bucket, beyond the first horizon
	n := e.Run(base + 15)
	if n != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("first horizon ran %d events (%v), want just event 1", n, got)
	}
	if e.Now() != base+15 {
		t.Errorf("Now = %d, want clamped to %d", e.Now(), base+15)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (event 2 held in the current tick)", e.Pending())
	}
	// Scheduling against the clamped clock must still order correctly.
	e.At(base+16, rec(3))
	e.Run(base + 100)
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestWheelOverflowCascade parks a chain far beyond the span and checks it
// cascades into the wheel (not executed early, not lost) as time advances,
// including a rotation boundary where refills happen incrementally.
func TestWheelOverflowCascade(t *testing.T) {
	e := NewEngine()
	span := int64(numBuckets) * tickNs
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	// Three rotations out, interleaved with near events that keep the
	// wheel turning one bucket at a time. Events at span+1 and beyond are
	// out of the initial span, so three of the five land in overflow.
	e.At(3*span+7, rec(4))
	e.At(2*span+9, rec(3))
	for i := int64(0); i < 3; i++ {
		e.At(i*span/2+1, rec(int(i)))
	}
	if len(e.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(e.overflow))
	}
	e.Run(4 * span)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

// TestWheelIdleJump leaves the queue with only a far-future event and
// checks the wheel jumps to it rather than stepping empty buckets, and
// that scheduling after an idle fast-forwarded clock still works.
func TestWheelIdleJump(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	far := int64(50_000_000) // 50 ms: ~190 rotations out
	e.At(far, rec(1))
	e.Run(far)
	if e.Now() != far || len(got) != 1 {
		t.Fatalf("far event did not run exactly at its time: now=%d got=%v", e.Now(), got)
	}
	// The clock has fast-forwarded; a fresh near event must still land.
	e.After(100, rec(2))
	e.After(100, rec(3))
	e.Run(far + tickNs)
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("post-jump order = %v", got)
	}
}

// TestWheelZeroAllocSteadyState verifies the schedule/dispatch cycle —
// including DCQCN timer rearms riding a live simulation — allocates
// nothing once slices reach steady state.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var cnt int
	fn := func() { cnt++ }
	var now int64
	// Warm the wheel, cur and bucket slices.
	for i := 0; i < 4096; i++ {
		now += 97
		e.At(now, fn)
	}
	e.Run(now)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			now += 97
			e.At(now, fn)
		}
		e.Run(now)
	})
	if allocs != 0 {
		t.Errorf("schedule/dispatch allocates %v/op in steady state, want 0", allocs)
	}

	// Typed DCQCN rearm path through a real network.
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	fs := &flowState{cc: newDCQCNState(n.cfg.LinkBps)}
	n.hosts[0].armDCQCNTimers(fs)
	horizon := int64(10_000_000)
	n.eng.Run(horizon) // warm
	allocs = testing.AllocsPerRun(100, func() {
		horizon += 1_000_000
		n.eng.Run(horizon)
	})
	if allocs != 0 {
		t.Errorf("DCQCN timer rearm allocates %v/op, want 0", allocs)
	}
}

// TestTimerArmIdempotentAndDisarming covers the cancel/rearm awareness:
// double-arming is a no-op (no duplicated chains) and a tick that finds
// its flow finished disarms the chain.
func TestTimerArmIdempotentAndDisarming(t *testing.T) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	h := n.hosts[0]
	fs := &flowState{cc: newDCQCNState(n.cfg.LinkBps)}
	h.armDCQCNTimers(fs)
	p1 := n.eng.Pending()
	h.armDCQCNTimers(fs) // second arm must not add events
	if got := n.eng.Pending(); got != p1 {
		t.Errorf("double arm grew pending %d → %d", p1, got)
	}
	fs.finished = true
	n.eng.Run(dcqcnRateTimerNs + dcqcnAlphaTimerNs + 1)
	if got := n.eng.Pending(); got != 0 {
		t.Errorf("finished flow still has %d timer events pending", got)
	}
	if fs.ccArmed {
		t.Error("alpha chain did not disarm on finish")
	}

	fsw := &flowState{win: newDCTCPState()}
	h.armRTOTimer(fsw)
	p1 = n.eng.Pending()
	h.armRTOTimer(fsw)
	if got := n.eng.Pending(); got != p1 {
		t.Errorf("double RTO arm grew pending %d → %d", p1, got)
	}
	fsw.finished = true
	n.eng.Run(n.eng.Now() + 2*dctcpRTONs)
	if n.eng.Pending() != 0 || fsw.rtoArmed {
		t.Error("finished window flow did not disarm its RTO chain")
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestWheelOrderKeyBounds pins the fields an order key packs at their
// bounds: events at a tick's last nanosecond with the largest lkey and seq
// a key holds (the key MaxUint64) still order by (at, lkey, seq), and the
// sequence one past the bound is refused, for local and link events alike.
func TestWheelOrderKeyBounds(t *testing.T) {
	if bucketShift+lkeyBits+seqBits != 64 || maxLinks != 1<<16-1 || maxSeq != 1<<40-1 {
		t.Fatalf("key layout %d+%d+%d bits, maxLinks %d, maxSeq %d", bucketShift, lkeyBits, seqBits, maxLinks, maxSeq)
	}
	e := NewEngine()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	last := 2*tickNs - 1 // tick 1's last nanosecond
	e.seq = maxSeq - 1
	e.atLink(last+1, 0, 1, rec(5))             // the next tick's first event
	e.atLink(last, maxLinks-1, maxSeq, rec(4)) // the largest key
	e.atLink(last, maxLinks-1, 1, rec(3))
	e.atLink(last, 0, maxSeq, rec(2))
	e.At(last, rec(1)) // the last local seq: maxSeq
	mustPanic(t, "a local event past the last seq", func() { e.At(last, rec(0)) })
	e.Run(last + 1)
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}

	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	p := n.ports[0][0]
	p.lseq = maxSeq - 1
	n.routeArrive(p, new(Packet)) // takes maxSeq
	mustPanic(t, "a link event past the last seq", func() { n.routeArrive(p, new(Packet)) })
}

// TestNewRefusesTooManyLinks pins the lkey bound: a key holds lkey+1 in
// lkeyBits, so New takes maxLinks directed links and refuses one more.
func TestNewRefusesTooManyLinks(t *testing.T) {
	// One host wired to one switch, which has links-1 ports back to it.
	star := func(links int) *Topology {
		return &Topology{Hosts: 1, Switches: 1, Ports: [][]PortDef{{{Peer: 1}}, make([]PortDef, links-1)}}
	}
	if _, err := New(DefaultConfig(star(maxLinks))); err != nil {
		t.Errorf("New refused %d directed links: %v", maxLinks, err)
	}
	if _, err := New(DefaultConfig(star(maxLinks + 1))); err == nil {
		t.Errorf("New took %d directed links, one more than a key holds", maxLinks+1)
	}
}

// TestEventSize pins an event at 56 bytes or less: the wheel, the tick
// slab and the shard outboxes copy and clear it by value, and the garbage
// collector scans it there.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 56 {
		t.Errorf("an event is %d bytes, want ≤ 56", got)
	}
}
