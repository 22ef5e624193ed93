package uevent

import (
	"testing"

	"umon/internal/netsim"
)

func TestAttributeDrops(t *testing.T) {
	drops := []netsim.DropRecord{
		{Ns: 100_000, Switch: 1, Port: 2},
		{Ns: 900_000, Switch: 1, Port: 2}, // no mirror near
		{Ns: 150_000, Switch: 5, Port: 0}, // wrong port mirror only
	}
	mirrors := []MirrorRecord{
		{Port: netsim.PortID{Switch: 1, Port: 2}, TimestampNs: 60_000},
		{Port: netsim.PortID{Switch: 9, Port: 9}, TimestampNs: 149_000},
	}
	lf := AttributeDrops(drops, mirrors, 50_000)
	if lf.Drops != 3 || lf.Attributed != 1 {
		t.Errorf("forensics = %+v, want 3 drops / 1 attributed", lf)
	}
	if got := lf.Ratio(); got < 0.33 || got > 0.34 {
		t.Errorf("ratio = %v", got)
	}
	if (LossForensics{}).Ratio() != 1 {
		t.Error("no-drop ratio should be 1")
	}
}

// TestLossAttributionEndToEnd verifies §5's claim on a real overload: most
// tail drops are preceded by CE marks on the same port, so even sampled
// mirroring attributes them.
func TestLossAttributionEndToEnd(t *testing.T) {
	topo, _ := netsim.Dumbbell(4)
	cfg := netsim.DefaultConfig(topo)
	cfg.BufferBytes = 300 << 10
	n, _ := netsim.New(cfg)
	for s := 0; s < 4; s++ {
		n.AddFlow(netsim.FlowSpec{Src: s, Dst: 4, Bytes: 20_000_000, StartNs: 0, FixedRateBps: 90e9})
	}
	n.Record()
	tr := n.Run(3_000_000)
	if len(tr.DropLog) == 0 {
		t.Fatal("4× fixed-rate overload into a 300 KB buffer dropped nothing")
	}
	mirrors := Capture(tr.CELog, ACLRule{SampleBits: 4}, 0)
	lf := AttributeDrops(tr.DropLog, mirrors, 200_000)
	if lf.Ratio() < 0.95 {
		t.Errorf("only %.1f%% of drops attributed; CE-before-drop should cover nearly all", 100*lf.Ratio())
	}
}
