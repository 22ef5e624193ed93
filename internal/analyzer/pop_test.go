package analyzer

import (
	"reflect"
	"slices"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/uevent"
)

func portMirror(sw, port int16, ns int64, f flowkey.Key) uevent.MirrorRecord {
	return uevent.MirrorRecord{
		Port:        netsim.PortID{Switch: sw, Port: port},
		TimestampNs: ns,
		OrigBytes:   1000,
		WireBytes:   64,
		Flow:        f,
	}
}

func TestPopClosedTakesOldEvents(t *testing.T) {
	a := New()
	f := key(1)
	// Two events on one port: [1000..2000] and [200000..201000].
	for _, ns := range []int64{1000, 1500, 2000, 200000, 201000} {
		a.AddMirror(portMirror(0, 0, ns, f))
	}
	want := a.DetectEvents(0)
	if len(want) != 2 {
		t.Fatalf("events before pop = %d, want 2", len(want))
	}

	got := a.PopClosed(nil, 100_000)
	if !reflect.DeepEqual(got, want[:1]) {
		t.Errorf("popped %+v, want %+v", got, want[:1])
	}
	if a.heldRecords() != 2 {
		t.Errorf("held records = %d after pop, want 2", a.heldRecords())
	}
	evs := a.DetectEvents(0)
	if len(evs) != 1 || evs[0].StartNs != 200000 {
		t.Fatalf("events after pop = %+v, want the late event only", evs)
	}
	// The surviving open event still extends with new in-order mirrors.
	a.AddMirror(portMirror(0, 0, 201500, f))
	evs = a.DetectEvents(0)
	if len(evs) != 1 || evs[0].EndNs != 201500 || evs[0].Packets != 3 {
		t.Fatalf("post-pop fold broken: %+v", evs)
	}
	// A second pop at the same cut returns nothing: each event leaves once.
	if again := a.PopClosed(nil, 100_000); len(again) != 0 {
		t.Errorf("second pop returned %+v", again)
	}
}

func TestPopClosedSealsQuietOpenEvent(t *testing.T) {
	a := New()
	f := key(1)
	a.AddMirror(portMirror(0, 0, 1000, f))
	a.AddMirror(portMirror(0, 0, 1200, f))
	// The open event [1000..1200] went quiet before the cut: the pop must
	// seal and return it, leaving the port empty and its state recycled.
	got := a.PopClosed(nil, 500_000)
	if len(got) != 1 || got[0].StartNs != 1000 || got[0].EndNs != 1200 || got[0].Packets != 2 {
		t.Errorf("popped %+v, want the one event [1000..1200]", got)
	}
	if n := len(a.DetectEvents(0)); n != 0 {
		t.Errorf("events after full pop = %d, want 0", n)
	}
	if a.heldRecords() != 0 || len(a.clusters) != 0 || len(a.free) != 1 {
		t.Errorf("held records = %d, %d active ports, %d free clusterers; want 0, 0, 1",
			a.heldRecords(), len(a.clusters), len(a.free))
	}
}

func TestPopClosedRebuildMatchesBatch(t *testing.T) {
	// Out-of-order input, then a pop: what is left must agree with a fresh
	// analyzer fed only the surviving records, and what was popped with one
	// fed only the released ones.
	f1 := key(1)
	f2 := key(2)
	times := []int64{5000, 1000, 300000, 2000, 301000, 299000}
	a, kept, gone := New(), New(), New()
	for i, ns := range times {
		fl := f1
		if i%2 == 1 {
			fl = f2
		}
		a.AddMirror(portMirror(1, 2, ns, fl))
		if ns < 100_000 {
			gone.AddMirror(portMirror(1, 2, ns, fl))
		} else {
			kept.AddMirror(portMirror(1, 2, ns, fl))
		}
	}
	if got, want := a.PopClosed(nil, 100_000), gone.DetectEvents(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("popped events %+v != batch events %+v", got, want)
	}
	if got, want := a.DetectEvents(0), kept.DetectEvents(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("remaining events %+v != fresh events %+v", got, want)
	}
}

func TestPopClosedNoopOnFutureOnlyState(t *testing.T) {
	a := New()
	f := key(1)
	a.AddMirror(portMirror(0, 0, 1_000_000, f))
	if got := a.PopClosed(nil, 1000); len(got) != 0 {
		t.Errorf("popped %+v from future-only state", got)
	}
	if len(a.DetectEvents(0)) != 1 || a.heldRecords() != 1 {
		t.Error("future event lost by no-op pop")
	}
}

// TestPopClosedOrdersAcrossPortsAndAppends checks the popped events come
// out in DetectEvents' (StartNs, switch, port) order whatever order the map
// walk visits ports in, behind whatever dst already holds.
func TestPopClosedOrdersAcrossPortsAndAppends(t *testing.T) {
	a := NewWithGap(20_000)
	for i := 0; i < 40; i++ {
		sw, port := int16(i%5), int16(i%3)
		ns := int64(1000 + (i%4)*100_000) // events of several ports share a start
		a.AddMirror(portMirror(sw, port, ns, key(i)))
		a.AddMirror(portMirror(sw, port, ns+500, key(i+1)))
	}
	want := a.DetectEvents(20_000)
	sentinel := Event{StartNs: -1}
	got := a.PopClosed([]Event{sentinel}, 1<<40)
	if !reflect.DeepEqual(got[0], sentinel) || !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("popped %+v\nwant  %+v", got[1:], want)
	}
	if a.heldRecords() != 0 || len(a.clusters) != 0 {
		t.Errorf("state left behind: %d records, %d ports", a.heldRecords(), len(a.clusters))
	}
}

// TestRecycledClustererStartsClean drives one clusterer through three
// ports: the second and third must see none of the earlier ports' flows,
// records, packets or bytes — with in-order and out-of-order input.
func TestRecycledClustererStartsClean(t *testing.T) {
	a := New()
	a.AddMirror(portMirror(0, 0, 1000, key(1)))
	a.AddMirror(portMirror(0, 0, 1100, key(2)))
	a.AddMirror(portMirror(0, 0, 1200, key(1)))
	first := a.clusters[netsim.PortID{}]
	a.PopClosed(nil, 100_000)

	a.AddMirror(portMirror(3, 1, 500_000, key(7)))
	p := netsim.PortID{Switch: 3, Port: 1}
	if a.clusters[p] != first {
		t.Fatal("the emptied clusterer was not reused")
	}
	fresh := New()
	fresh.AddMirror(portMirror(3, 1, 500_000, key(7)))
	if got, want := a.DetectEvents(0), fresh.DetectEvents(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled port's event %+v, fresh %+v", got, want)
	}
	if got := a.PopClosed(nil, 600_000); len(got) != 1 || !reflect.DeepEqual(got[0].Flows, []flowkey.Key{key(7)}) || got[0].Port != p {
		t.Fatalf("popped %+v, want one event of flow 7 on %v", got, p)
	}

	// Third tenant, fed out of order: the rebuild must re-fold this port's
	// records only.
	a.AddMirror(portMirror(4, 0, 900_100, key(9)))
	a.AddMirror(portMirror(4, 0, 900_000, key(8)))
	fresh = New()
	fresh.AddMirror(portMirror(4, 0, 900_100, key(9)))
	fresh.AddMirror(portMirror(4, 0, 900_000, key(8)))
	if got, want := a.PopClosed(nil, 1_000_000), fresh.DetectEvents(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled unsorted port popped %+v, fresh %+v", got, want)
	}
	if a.heldRecords() != 0 {
		t.Errorf("held records = %d, want 0", a.heldRecords())
	}
}

// TestHotSlotCollisionsStayCorrect interleaves three ports that share one
// slot of the lookup cache, pops one of them empty in between and lets a
// fourth take its clusterer: every mirror must land in its own port's
// event.
func TestHotSlotCollisionsStayCorrect(t *testing.T) {
	ports := []netsim.PortID{{Switch: 0, Port: 0}, {Switch: 32, Port: 0}, {Switch: 1, Port: 8}, {Switch: 64, Port: 0}}
	for _, p := range ports[1:] {
		if hotSlot(p) != hotSlot(ports[0]) {
			t.Fatalf("%v does not collide with %v", p, ports[0])
		}
	}
	a := New()
	add := func(i int, ns int64) { a.AddMirror(portMirror(ports[i].Switch, ports[i].Port, ns, key(i))) }
	for ns := int64(200_000); ns < 200_600; ns += 100 {
		add(1, ns)
		add(2, ns+1)
	}
	add(0, 1000) // the slot's last claimant is the port about to empty
	if got := a.PopClosed(nil, 100_000); len(got) != 1 || got[0].Port != ports[0] || got[0].Packets != 1 {
		t.Fatalf("popped %+v, want port 0's one-mirror event", got)
	}
	for ns := int64(200_600); ns < 201_000; ns += 100 {
		add(0, ns) // must not find its recycled clusterer through the slot
		add(3, ns+1)
		add(1, ns+2)
		add(2, ns+3)
	}
	got := a.PopClosed(nil, 1<<40)
	if len(got) != 4 {
		t.Fatalf("popped %d events, want one per port: %+v", len(got), got)
	}
	for _, ev := range got {
		i := slices.Index(ports, ev.Port)
		want := map[int]int{0: 4, 1: 10, 2: 10, 3: 4}[i]
		if ev.Packets != want || !reflect.DeepEqual(ev.Flows, []flowkey.Key{key(i)}) {
			t.Errorf("port %v: %d packets of flows %v, want %d of its own flow", ev.Port, ev.Packets, ev.Flows, want)
		}
	}
}

// heldRecords counts the mirror records a holds across its ports.
func (a *Analyzer) heldRecords() (n int) {
	for _, p := range a.clusters {
		n += p.recs.n
	}
	return n
}
