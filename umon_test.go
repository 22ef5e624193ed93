package umon_test

import (
	"math"
	"testing"

	"umon"
)

// TestFacadeQuickstart exercises the public API end to end the way the
// quickstart example does: sketch a synthetic flow, report it, query it.
func TestFacadeQuickstart(t *testing.T) {
	sk, err := umon.NewWaveSketch(umon.DefaultSketch(64))
	if err != nil {
		t.Fatal(err)
	}
	f := umon.FlowKey{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 7, DstPort: 4791, Proto: 17}
	for w := int64(0); w < 128; w++ {
		sk.Update(f, w, 8192)
	}
	est := umon.SealReport(sk).QueryRange(f, 0, 128)
	for w, v := range est {
		if math.Abs(umon.RateGbps(v)-8) > 0.5 {
			t.Fatalf("window %d rate = %v Gbps, want ≈8", w, umon.RateGbps(v))
		}
	}
}

func TestFacadeDeployment(t *testing.T) {
	topo, err := umon.Dumbbell(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := umon.NewNetwork(umon.DefaultSimConfig(topo))
	if err != nil {
		t.Fatal(err)
	}
	cfg := umon.DefaultSystem()
	cfg.Switch.Rule = umon.ACLRule{SampleBits: 1}
	sys, err := umon.Deploy(n, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AddFlow(umon.FlowSpec{Src: 0, Dst: 2, Bytes: 5_000_000})
	n.AddFlow(umon.FlowSpec{Src: 1, Dst: 2, Bytes: 5_000_000})
	n.Run(3_000_000)
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	if sys.Collector.Status().MirrorsIngested == 0 {
		t.Error("deployment captured no mirrors")
	}
	if len(sys.Collector.Events()) == 0 {
		t.Error("no events detected")
	}
}

func TestWindowHelpers(t *testing.T) {
	if umon.WindowNanos != 8192 {
		t.Errorf("WindowNanos = %d", umon.WindowNanos)
	}
	if umon.WindowOf(8192*10+1) != 10 {
		t.Error("WindowOf broken")
	}
}
