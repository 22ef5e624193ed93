package netsim

import "testing"

func TestDCTCPStateMachine(t *testing.T) {
	d := newDCTCPState()
	initial := d.cwnd
	if initial != 10*PayloadBytes {
		t.Fatalf("initial cwnd = %v, want 10 MSS", initial)
	}
	// Slow start: +1 MSS per clean ACK.
	d.onAck(false, 100)
	if d.cwnd != initial+PayloadBytes {
		t.Errorf("slow-start growth = %v", d.cwnd)
	}
	// A marked ACK cuts by α/2 once per epoch. α starts 0 → no cut yet,
	// but the epoch records marks.
	d.onAck(true, 100)
	d.onEpochEnd()
	if d.alpha <= 0 {
		t.Error("alpha must grow after a marked epoch")
	}
	// After α grows, a marked ACK in the next epoch cuts.
	before := d.cwnd
	d.onAck(true, 100)
	if d.cwnd >= before {
		t.Errorf("marked ACK with α>0 should cut cwnd: %v → %v", before, d.cwnd)
	}
	// Only one cut per epoch.
	after := d.cwnd
	d.onAck(true, 100)
	if d.cwnd < after {
		t.Error("second marked ACK in the same epoch must not cut again")
	}
	// Loss halves.
	d.cwnd = 100000
	d.onLoss()
	if d.cwnd != 50000 {
		t.Errorf("loss cwnd = %v, want halved", d.cwnd)
	}
	// Floor at 1 MSS.
	d.cwnd = 100
	d.onLoss()
	if d.cwnd != PayloadBytes {
		t.Errorf("cwnd floor = %v, want 1 MSS", d.cwnd)
	}
	// Clean epochs decay alpha (reset the epoch counters first).
	d.onEpochEnd()
	a := d.alpha
	d.onAck(false, 1)
	d.onEpochEnd()
	if d.alpha >= a {
		t.Error("alpha must decay after a clean epoch")
	}
}

func TestDCTCPFlowDelivers(t *testing.T) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	const size = 2_000_000
	id, err := n.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: size, CC: CCDCTCP})
	if err != nil {
		t.Fatal(err)
	}
	tr := n.Run(20_000_000)
	st := tr.Flows[id]
	if st.RxBytes != size {
		t.Fatalf("delivered %d of %d bytes", st.RxBytes, size)
	}
	if st.Retransmits != 0 {
		t.Errorf("uncontended flow retransmitted %d segments", st.Retransmits)
	}
	if st.Key.Proto != 6 {
		t.Errorf("DCTCP flow proto = %d, want TCP", st.Key.Proto)
	}
	if n.FlowCwnd(id) <= 0 {
		t.Error("cwnd should be positive")
	}
	if n.FlowRate(id) != 0 {
		t.Error("window flows report no pacing rate")
	}
}

func TestDCTCPReactsToECN(t *testing.T) {
	// Two DCTCP flows share a bottleneck: marks must hold the queue near
	// the marking region and both flows should make progress.
	topo, _ := Dumbbell(2)
	cfg := DefaultConfig(topo)
	n, _ := New(cfg)
	a, _ := n.AddFlow(FlowSpec{Src: 0, Dst: 2, Bytes: 1 << 30, CC: CCDCTCP})
	b, _ := n.AddFlow(FlowSpec{Src: 1, Dst: 2, Bytes: 1 << 30, CC: CCDCTCP})
	horizon := int64(10_000_000)
	n.Record()
	tr := n.Run(horizon)
	gA := float64(tr.Flows[a].RxBytes) * 8 / float64(horizon) * 1e9
	gB := float64(tr.Flows[b].RxBytes) * 8 / float64(horizon) * 1e9
	sum := gA + gB
	if sum > cfg.LinkBps*1.05 {
		t.Errorf("aggregate %v exceeds capacity", sum)
	}
	if sum < cfg.LinkBps*0.5 {
		t.Errorf("aggregate %v under 50%% of capacity: DCTCP too timid", sum)
	}
	if gA < sum*0.2 || gB < sum*0.2 {
		t.Errorf("unfair split: %v vs %v", gA, gB)
	}
	if len(tr.CELog) == 0 {
		t.Error("no CE marks under DCTCP contention")
	}
}

func TestGoBackNRecoversFromLoss(t *testing.T) {
	// A tiny buffer forces drops; go-back-N must still deliver every byte
	// in order.
	topo, _ := Dumbbell(4)
	cfg := DefaultConfig(topo)
	cfg.BufferBytes = 60 << 10
	n, _ := New(cfg)
	const size = 3_000_000
	var ids []int32
	for s := 0; s < 4; s++ {
		id, err := n.AddFlow(FlowSpec{Src: s, Dst: 4, Bytes: size, CC: CCDCTCP})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tr := n.Run(60_000_000)
	var drops, retrans int64
	for _, id := range ids {
		st := tr.Flows[id]
		drops += st.Drops
		retrans += st.Retransmits
		if st.RxBytes != size {
			t.Errorf("flow %d delivered %d of %d", id, st.RxBytes, size)
		}
	}
	if drops == 0 {
		t.Skip("no drops induced; loss path not exercised")
	}
	if retrans == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
}

func TestAddFlowRejectsConflictingModes(t *testing.T) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	if _, err := n.AddFlow(FlowSpec{Src: 0, Dst: 1, Bytes: 10, CC: CCDCTCP, FixedRateBps: 1e9}); err == nil {
		t.Error("DCTCP + fixed rate must be rejected")
	}
}

func TestDCTCPOnOffGates(t *testing.T) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	id, err := n.AddFlow(FlowSpec{
		Src: 0, Dst: 1, Bytes: 1 << 30, CC: CCDCTCP,
		OnNs: 100_000, OffNs: 150_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Record()
	tr := n.Run(2_000_000)
	var onBytes, offBytes int64
	for _, r := range tr.HostPackets[0] {
		if r.FlowID != id {
			continue
		}
		if (r.Ns % 250_000) < 100_000 {
			onBytes += int64(r.Size)
		} else {
			offBytes += int64(r.Size)
		}
	}
	if onBytes == 0 {
		t.Fatal("on-off DCTCP flow sent nothing")
	}
	if offBytes > onBytes/4 {
		t.Errorf("off-phase bytes %d too high vs on-phase %d", offBytes, onBytes)
	}
}
