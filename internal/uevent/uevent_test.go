package uevent

import (
	"math"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/packet"
)

func ce(ns int64, sw, port int16, flow int32, psn uint32) netsim.CERecord {
	return netsim.CERecord{
		Ns: ns, Switch: sw, Port: port, FlowID: flow, PSN: psn, Size: 1058,
		Flow: flowkey.Key{SrcIP: uint32(flow), DstIP: 99, SrcPort: 1, DstPort: flowkey.RoCEPort, Proto: 17},
	}
}

func TestACLRuleSampling(t *testing.T) {
	r := ACLRule{SampleBits: 3} // 1/8
	if r.String() != "p=1/8" {
		t.Errorf("String = %q", r.String())
	}
	// The Figure 8 example: PSN low bits *000 match.
	for psn := uint32(0); psn < 64; psn++ {
		want := psn%8 == 0
		if got := r.Matches(true, psn); got != want {
			t.Fatalf("Matches(CE, %d) = %v, want %v", psn, got, want)
		}
	}
	if r.Matches(false, 0) {
		t.Error("non-CE packets must never match")
	}
	all := ACLRule{}
	if !all.Matches(true, 12345) {
		t.Error("SampleBits=0 must match every CE packet")
	}
}

func TestCaptureExactRatio(t *testing.T) {
	var log []netsim.CERecord
	for psn := uint32(0); psn < 1024; psn++ {
		log = append(log, ce(int64(psn)*1000, 0, 0, 1, psn))
	}
	got := Capture(log, ACLRule{SampleBits: 6}, 0)
	if len(got) != 16 { // 1024/64
		t.Errorf("captured %d, want 16", len(got))
	}
	for _, m := range got {
		if m.PSN%64 != 0 {
			t.Errorf("captured PSN %d not on the sampling lattice", m.PSN)
		}
		if m.WireBytes != m.OrigBytes {
			t.Error("full mirroring should keep original size")
		}
	}
}

func TestCaptureTruncation(t *testing.T) {
	log := []netsim.CERecord{ce(0, 0, 0, 1, 0)}
	got := Capture(log, ACLRule{}, 64)
	if got[0].WireBytes != 64 || got[0].OrigBytes != 1058 {
		t.Errorf("trunc = %d/%d, want 64/1058", got[0].WireBytes, got[0].OrigBytes)
	}
}

func TestVLANRoundTrip(t *testing.T) {
	for sw := int16(0); sw < 20; sw++ {
		for p := int16(0); p < 4; p++ {
			id := netsim.PortID{Switch: sw, Port: p}
			if got := PortForVLAN(VLANFor(id)); got != id {
				t.Fatalf("VLAN round trip %v → %v", id, got)
			}
		}
	}
}

func TestEncodeMirrorPacketParses(t *testing.T) {
	m := Capture([]netsim.CERecord{ce(123456, 7, 2, 42, 800)}, ACLRule{SampleBits: 5}, 0)
	if len(m) != 1 {
		t.Fatalf("captured %d, want 1 (PSN 800 ≡ 0 mod 32)", len(m))
	}
	wire := AppendMirrorPacket(nil, m[0])
	dec, err := DecodeMirrorPacket(wire)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TimestampNs != 123456 || dec.PSN != 800 || dec.OrigBytes != m[0].OrigBytes || dec.Flow != m[0].Flow {
		t.Errorf("decoded %+v", dec)
	}
	if dec.Port != (netsim.PortID{Switch: 7, Port: 2}) {
		t.Errorf("port from VLAN = %v", dec.Port)
	}
	// A mirror without the CE mark cannot have matched the ACL.
	notCE := packet.AppendMirror(nil, &packet.Mirrored{VLANID: 1, Flow: m[0].Flow})
	if _, err := DecodeMirrorPacket(notCE); err == nil {
		t.Error("non-CE mirror accepted")
	}
}

func episode(sw, port int16, start, end, maxQ int64, flows ...int32) netsim.Episode {
	return netsim.Episode{
		Port:    netsim.PortID{Switch: sw, Port: port},
		StartNs: start, EndNs: end, MaxBytes: maxQ, Flows: flows,
	}
}

func TestGradeRecallAndFlows(t *testing.T) {
	episodes := []netsim.Episode{
		episode(0, 0, 1000, 2000, 210<<10, 1, 2, 3), // captured (two mirrors)
		episode(0, 0, 5000, 6000, 220<<10, 4),       // missed (no mirrors in span)
		episode(1, 0, 1000, 2000, 30<<10, 5),        // wrong port mirror → missed
	}
	mirrors := []MirrorRecord{
		{Port: netsim.PortID{Switch: 0, Port: 0}, TimestampNs: 1500, FlowID: 1},
		{Port: netsim.PortID{Switch: 0, Port: 0}, TimestampNs: 1600, FlowID: 9}, // non-participant
		{Port: netsim.PortID{Switch: 0, Port: 0}, TimestampNs: 9000, FlowID: 4},
	}
	bins := Grade(episodes, mirrors, 25<<10, 250<<10, 0)
	if len(bins) != 10 {
		t.Fatalf("bins = %d, want 10", len(bins))
	}
	// 210KB and 220KB land in bin 8 (200-225 KB).
	hi := bins[8]
	if hi.Events != 2 || hi.Captured != 1 {
		t.Errorf("high bin events/captured = %d/%d, want 2/1", hi.Events, hi.Captured)
	}
	if hi.Recall() != 0.5 {
		t.Errorf("high bin recall = %v, want 0.5", hi.Recall())
	}
	if hi.FlowsTruth != 4 || hi.FlowsCaptured != 1 {
		t.Errorf("flows truth/captured = %d/%d, want 4/1 (flow 9 is not a participant)",
			hi.FlowsTruth, hi.FlowsCaptured)
	}
	lo := bins[1] // 25-50KB
	if lo.Events != 1 || lo.Captured != 0 {
		t.Errorf("low bin events/captured = %d/%d, want 1/0", lo.Events, lo.Captured)
	}
	if got := RecallAbove(bins, 200<<10); got != 0.5 {
		t.Errorf("RecallAbove(KMax) = %v, want 0.5", got)
	}
	if got := RecallAbove(bins, 300<<10); got != 1 {
		t.Errorf("RecallAbove beyond data = %v, want 1 (vacuous)", got)
	}
}

func TestGradeSlackRescuesBoundaryMirrors(t *testing.T) {
	episodes := []netsim.Episode{episode(0, 0, 1000, 2000, 100<<10, 1)}
	mirrors := []MirrorRecord{{Port: netsim.PortID{Switch: 0, Port: 0}, TimestampNs: 2400, FlowID: 1}}
	noSlack := Grade(episodes, mirrors, 25<<10, 250<<10, 0)
	if RecallAbove(noSlack, 0) != 0 {
		t.Error("mirror outside the span must not count without slack")
	}
	slack := Grade(episodes, mirrors, 25<<10, 250<<10, 500)
	if RecallAbove(slack, 0) != 1 {
		t.Error("slack should capture the boundary mirror")
	}
}

func TestGradeEmpty(t *testing.T) {
	bins := Grade(nil, nil, 0, 250<<10, 0)
	for _, b := range bins {
		if b.Events != 0 || b.Recall() != 1 {
			t.Error("empty grading must be vacuous")
		}
		if b.AvgFlowsCaptured() != 0 || b.AvgFlowsTruth() != 0 {
			t.Error("empty bins have no flows")
		}
	}
}

func TestBandwidth(t *testing.T) {
	mirrors := []MirrorRecord{
		{Port: netsim.PortID{Switch: 0}, WireBytes: 1000},
		{Port: netsim.PortID{Switch: 0}, WireBytes: 1000},
		{Port: netsim.PortID{Switch: 1}, WireBytes: 500},
	}
	rep := Bandwidth(mirrors, 1_000_000) // 1 ms
	if rep.TotalBytes != 2500 {
		t.Errorf("total = %d, want 2500", rep.TotalBytes)
	}
	// Switch 0: 2000 B over 1 ms = 16 Mbps.
	if math.Abs(rep.PerSwitchBps[0]-16e6) > 1 {
		t.Errorf("switch 0 bw = %v, want 16e6", rep.PerSwitchBps[0])
	}
	if rep.MaxBps != rep.PerSwitchBps[0] {
		t.Errorf("max = %v, want switch 0's %v", rep.MaxBps, rep.PerSwitchBps[0])
	}
	if got := Bandwidth(nil, 0); got.TotalBytes != 0 {
		t.Error("zero-duration bandwidth must be empty")
	}
}

// TestEndToEndRecallShape runs a small simulation and verifies the Figure
// 14 qualitative shape: recall grows with sampling probability, and
// sampling shrinks mirror bandwidth roughly geometrically.
func TestEndToEndRecallShape(t *testing.T) {
	topo, _ := netsim.Dumbbell(4)
	cfg := netsim.DefaultConfig(topo)
	n, _ := netsim.New(cfg)
	for s := 0; s < 4; s++ {
		n.AddFlow(netsim.FlowSpec{Src: s, Dst: 4, Bytes: 4_000_000, StartNs: int64(s) * 50_000})
	}
	n.Record()
	tr := n.Run(5_000_000)
	if len(tr.Episodes) == 0 || len(tr.CELog) == 0 {
		t.Fatalf("%d episodes, %d CE records: the 4:1 incast must congest and be recorded", len(tr.Episodes), len(tr.CELog))
	}
	var prevRecall, prevBw float64 = -1, math.Inf(1)
	for _, bits := range []uint{0, 3, 6} {
		mirrors := Capture(tr.CELog, ACLRule{SampleBits: bits}, 0)
		bins := Grade(tr.Episodes, mirrors, 25<<10, 250<<10, 0)
		rec := RecallAbove(bins, 0)
		bw := Bandwidth(mirrors, tr.DurationNs).MaxBps
		if prevRecall >= 0 && rec > prevRecall+1e-9 {
			t.Errorf("recall increased when sampling got sparser: %v → %v", prevRecall, rec)
		}
		if bw > prevBw+1 {
			t.Errorf("bandwidth increased when sampling got sparser: %v → %v", prevBw, bw)
		}
		prevRecall, prevBw = rec, bw
	}
	// Full mirroring captures every episode that overlaps a CE packet; on
	// a heavily congested bottleneck that should be nearly all of them.
	full := Capture(tr.CELog, ACLRule{}, 0)
	if got := RecallAbove(Grade(tr.Episodes, full, 25<<10, 250<<10, 0), 200<<10); got < 0.9 {
		t.Errorf("full-sampling recall above KMax = %v, want ≥ 0.9", got)
	}
}
