package core

import (
	"math/rand"
	"runtime"
	"sort"
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

// BenchmarkSealAndShip is one epoch boundary of a host at the occupancy the
// packet→answer benchmark's stream-mice workload seals at: a Table 1 full
// sketch with some 48 light buckets and as many heavy entries holding about
// a thousand detail coefficients between them. Timed: seal, export, encode,
// ship to a sink that discards, reset; refilling the sketch is not.
// wire-B/op is the size of the report.
func BenchmarkSealAndShip(b *testing.B) {
	cfg := StreamMonitorConfig{HostMonitorConfig: DefaultHostMonitor()}
	wire := 0
	m, err := NewStreamHostMonitor(0, cfg, FuncSink(func(sr SealedReport) error {
		wire = len(sr.Encoded)
		return nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	// 52 mice: one train each, a few packets a window over one to six
	// adjacent windows somewhere in the epoch's 256.
	rng := rand.New(rand.NewSource(42))
	type sample struct {
		key          flowkey.Key
		window, size int64
	}
	var epoch []sample
	for f := 0; f < 52; f++ {
		start := int64(rng.Intn(250))
		for w := start; w < start+1+int64(rng.Intn(6)); w++ {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				epoch = append(epoch, sample{testKey(f), w, int64(64 + rng.Intn(1400))})
			}
		}
	}
	sort.SliceStable(epoch, func(i, j int) bool { return epoch[i].window < epoch[j].window })
	m.started = true
	refill := func() {
		for _, s := range epoch {
			m.live.Update(s.key, s.window, s.size)
		}
	}
	refill()
	if err := m.rotate(); err != nil { // grows the curve lists and the encode buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refill()
		m.periodStart = 0 // the samples' windows are those of epoch 0
		b.StartTimer()
		if err := m.rotate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wire), "wire-B/op")
}

// BenchmarkIdleEpoch is what a host owes per epoch it sat out: the report
// of the header alone, and no pass over the sketch.
func BenchmarkIdleEpoch(b *testing.B) {
	cfg := StreamMonitorConfig{HostMonitorConfig: DefaultHostMonitor()}
	m, err := NewStreamHostMonitor(0, cfg, FuncSink(func(SealedReport) error { return nil }))
	if err != nil {
		b.Fatal(err)
	}
	m.started = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.rotate(); err != nil {
			b.Fatal(err)
		}
	}
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
