package core

import (
	"math/rand"
	"runtime"
	"testing"

	"umon/internal/flowkey"
)

// BenchmarkStreamHostMonitorOnPacket is the host packet path at the
// working set the packet→answer benchmark (bench/) runs it at: 16
// monitors with Table 1 sketches fed one time-interleaved trace at 2.1 ms
// epochs, ≈4,400 packets per host and epoch in trains of ≈16 packets of
// one flow, each monitor sealing and shipping as the trace crosses its
// boundaries. The per-packet path must not allocate; what a seal allocates
// is far below one object per packet.
func BenchmarkStreamHostMonitorOnPacket(b *testing.B) {
	const (
		hosts    = 16
		epochNs  = 1 << 21
		gapNs    = 30 // between consecutive packets of the fabric
		flows    = 512
		traceLen = 1 << 16
	)
	cfg := StreamMonitorConfig{HostMonitorConfig: DefaultHostMonitor()}
	cfg.PeriodNs = epochNs
	discard := FuncSink(func(SealedReport) error { return nil })
	mons := make([]*StreamHostMonitor, hosts)
	for h := range mons {
		m, err := NewStreamHostMonitor(h, cfg, discard)
		if err != nil {
			b.Fatal(err)
		}
		mons[h] = m
	}
	type rec struct {
		host int
		key  flowkey.Key
		size int
	}
	rng := rand.New(rand.NewSource(42))
	trace := make([]rec, traceLen)
	var sending [hosts]int // the flow of each host's current train
	for i := range trace {
		h := rng.Intn(hosts)
		if rng.Intn(16) == 0 {
			sending[h] = rng.Intn(flows)
			if rng.Intn(2) == 0 {
				sending[h] %= 8 // half the trains belong to a few elephants
			}
		}
		f := sending[h]
		trace[i] = rec{
			host: h,
			key: flowkey.Key{
				SrcIP: 0x0a000001 + uint32(h), DstIP: 0x0a000101 + uint32(f%hosts),
				SrcPort: uint16(10000 + f), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
			},
			size: 64 + rng.Intn(1400),
		}
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		r := &trace[i%traceLen]
		if err := mons[r.host].OnPacket(r.key, int64(i)*gapNs, r.size); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// Asserted as the benchmark line prints it: whole objects per packet.
	if perOp := (after.Mallocs - before.Mallocs) / uint64(b.N); perOp != 0 {
		b.Fatalf("%d allocs/op on the packet path, want 0", perOp)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkSwitchMonitorOnCEPacket is the switch's share of the mirror
// path: ACL match (every CE packet mirrored), record, wire encoding into
// the monitor's scratch buffer, and an emit callback that copies the packet
// onto a reused wire buffer, as bench/ does.
func BenchmarkSwitchMonitorOnCEPacket(b *testing.B) {
	wire := make([]byte, 0, 1<<16)
	m := NewSwitchMonitor(3, SwitchMonitorConfig{}, func(encoded []byte) {
		if len(wire)+len(encoded) > cap(wire) {
			wire = wire[:0]
		}
		wire = append(wire, encoded...)
	})
	f := flowkey.Key{SrcIP: 0x0a000001, DstIP: 0x0a000101, SrcPort: 10000, DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SrcPort = uint16(10000 + i&63)
		m.OnCEPacket(int16(i&3), int64(i)*100, f, uint32(i), 1058)
	}
	if n, _ := m.Stats(); n != int64(b.N) {
		b.Fatalf("%d of %d CE packets mirrored", n, b.N)
	}
}
