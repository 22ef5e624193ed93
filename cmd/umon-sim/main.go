// umon-sim runs a µMon-instrumented data-center simulation and exports
// its artifacts: the mirrored event packets as a pcap capture
// (mirrors.pcap, written after the run in (time, switch, port) order — the
// same bytes at every -shards count), the host WaveSketch reports as one
// epoch-rotated framed stream (reports.umstream), and a summary of the run.
//
// Usage:
//
//	umon-sim -workload hadoop -load 0.15 -ms 20 -out out/
//
// The outputs feed umon-collect, which analyzes them to EOF (or tails them
// with -follow):
//
//	umon-collect -reports out/reports.umstream -mirrors out/mirrors.pcap
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"umon/internal/core"
	"umon/internal/netsim"
	"umon/internal/packet"
	"umon/internal/pcapio"
	"umon/internal/telemetry"
	"umon/internal/uevent"
	"umon/internal/workload"
)

func main() {
	wl := flag.String("workload", "hadoop", "workload: hadoop or websearch")
	load := flag.Float64("load", 0.15, "target link load (0-1)")
	ms := flag.Int64("ms", 20, "traffic duration in milliseconds")
	seed := flag.Int64("seed", 42, "generation seed")
	sampleBits := flag.Uint("sample-bits", 6, "event sampling: probability 1/2^bits")
	shards := flag.Int("shards", 1, "simulation engine shards (the trace is identical at any count)")
	outDir := flag.String("out", "umon-out", "output directory")
	epochMs := flag.Int64("epoch-ms", 0, "host sealing period in milliseconds (0: one period spanning the whole run)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry on this address (/metrics Prometheus, /vars JSON, /debug/pprof)")
	telemetryDump := flag.Bool("telemetry-dump", false, "print a telemetry summary to stderr at end of run")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryAddr != "" || *telemetryDump {
		reg = telemetry.NewRegistry()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "umon-sim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "umon-sim: telemetry on http://%s/metrics\n", srv.Addr())
	}
	err := run(*wl, *load, *ms, *seed, *sampleBits, *shards, *outDir, *epochMs, reg)
	if *telemetryDump {
		reg.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "umon-sim:", err)
		os.Exit(1)
	}
}

func run(wl string, load float64, ms, seed int64, sampleBits uint, shards int, outDir string, epochMs int64, reg *telemetry.Registry) error {
	var dist *workload.Distribution
	switch strings.ToLower(wl) {
	case "hadoop":
		dist = workload.FacebookHadoop()
	case "websearch":
		dist = workload.WebSearch()
	default:
		return fmt.Errorf("unknown workload %q (want hadoop or websearch)", wl)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	topo, err := netsim.FatTree(4)
	if err != nil {
		return err
	}
	cfg := netsim.DefaultConfig(topo)
	cfg.Seed = uint64(seed)
	cfg.Stats = netsim.NewSimStats(reg)
	cfg.Shards = shards
	hostSamples := reg.CounterVec("umon_host_samples_total", "packets fed to each host's sketch", "host", topo.Hosts)
	tracer := telemetry.NewTracer(reg)
	flows, err := workload.Generate(workload.Config{
		Dist: dist, Load: load, Hosts: topo.Hosts,
		LinkBps: cfg.LinkBps, DurationNs: ms * 1_000_000, Seed: seed,
	})
	if err != nil {
		return err
	}
	n, err := netsim.New(cfg)
	if err != nil {
		return err
	}

	sysCfg := core.DefaultSystem()
	sysCfg.Host.PeriodNs = ms * 1_000_000
	if epochMs > 0 {
		sysCfg.Host.PeriodNs = epochMs * 1_000_000
	}
	sysCfg.Switch.Rule = uevent.ACLRule{SampleBits: sampleBits}

	// Every host's sealed epochs go into one framed stream file — the
	// input umon-collect reads or tails. The sink serializes
	// concurrent Ship calls, so it is safe at any shard count.
	sf, err := os.Create(filepath.Join(outDir, "reports.umstream"))
	if err != nil {
		return err
	}
	defer sf.Close()
	streamSink, err := core.NewStreamSink(sf)
	if err != nil {
		return err
	}
	// The switches' mirrors are held back, wire-encoded and back to back,
	// and written once the run is over (see writeMirrors).
	var mirrorMu sync.Mutex
	var mirrors []byte
	sys, err := core.Wire(n, topo, sysCfg, streamSink, func(encoded []byte) error {
		mirrorMu.Lock()
		mirrors = append(mirrors, encoded...)
		mirrorMu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}

	wired := n.OnHostEgress
	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		wired(host, pkt, now)
		hostSamples.At(host).Inc()
	}

	for _, f := range flows {
		if _, err := n.AddFlow(netsim.FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, StartNs: f.StartNs}); err != nil {
			return err
		}
	}
	horizon := ms*1_000_000 + ms*100_000
	span := tracer.Start("sim_run")
	tr := n.Run(horizon)
	span.End()
	span = tracer.Start("host_flush")
	err = sys.Finish()
	span.End()
	if err != nil {
		return err
	}
	if err := writeMirrors(filepath.Join(outDir, "mirrors.pcap"), mirrors); err != nil {
		return err
	}
	if err := streamSink.Close(); err != nil {
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	fmt.Printf("workload      %s %.0f%% load, %d flows, %d packets\n", dist.Name, load*100, len(flows), tr.TotalPackets())
	fmt.Printf("events        %d ground-truth episodes, %d CE observations\n", len(tr.Episodes), len(tr.CELog))
	fmt.Printf("reports       %d framed epochs in reports.umstream, %d bytes (%.2f Mbps/host avg)\n",
		streamSink.Frames(), sys.ReportBytes(), sys.HostBandwidthBps(horizon)/1e6)
	fmt.Printf("output        %s\n", outDir)
	return nil
}

// writeMirrors writes the wire-encoded mirror packets of a run as a pcap
// capture in (time, switch, port) order. One port CE-marks at most one
// packet per nanosecond, so the key is total and the file is the same
// whatever order the switches emitted in — at every shard count.
func writeMirrors(path string, wire []byte) error {
	const pktLen = packet.MirrorEncodedLen
	recs := make([]uevent.MirrorRecord, len(wire)/pktLen)
	order := make([]int, len(recs))
	for i := range recs {
		var err error
		if recs[i], err = uevent.DecodeMirrorPacket(wire[i*pktLen:][:pktLen]); err != nil {
			return err
		}
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &recs[order[i]], &recs[order[j]]
		if a.TimestampNs != b.TimestampNs {
			return a.TimestampNs < b.TimestampNs
		}
		if a.Port.Switch != b.Port.Switch {
			return a.Port.Switch < b.Port.Switch
		}
		return a.Port.Port < b.Port.Port
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := pcapio.NewWriter(f, 0)
	for _, i := range order {
		if err := w.WritePacket(pcapio.Packet{TimestampNs: recs[i].TimestampNs, Data: wire[i*pktLen:][:pktLen], OrigLen: pktLen}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
