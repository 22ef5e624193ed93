// umon-sim runs a µMon-instrumented data-center simulation and exports
// its artifacts: the mirrored event packets as a pcap capture
// (mirrors.pcap, written as the switches emit them, in (time, switch,
// port) order), the host WaveSketch reports as one epoch-rotated framed
// stream (reports.umstream), and a summary of the run. It records no
// packet log: the summary's counts come from the same taps that feed the
// monitors.
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
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

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
	err := run(os.Stdout, *wl, *load, *ms, *seed, *sampleBits, *outDir, *epochMs, reg)
	if *telemetryDump {
		reg.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "umon-sim:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, wl string, load float64, ms, seed int64, sampleBits uint, outDir string, epochMs int64, reg *telemetry.Registry) error {
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
	// input umon-collect reads or tails.
	sf, err := os.Create(filepath.Join(outDir, "reports.umstream"))
	if err != nil {
		return err
	}
	defer sf.Close()
	streamSink, err := core.NewStreamSink(sf)
	if err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(outDir, "mirrors.pcap"))
	if err != nil {
		return err
	}
	defer mf.Close()
	mirrors := &mirrorWriter{w: pcapio.NewWriter(mf, 0)}
	sys, err := core.Wire(n, topo, sysCfg, streamSink, mirrors.add)
	if err != nil {
		return err
	}

	var packets, ceSeen int64
	wiredHost, wiredCE := n.OnHostEgress, n.OnSwitchCE
	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		wiredHost(host, pkt, now)
		hostSamples.At(host).Inc()
		packets++
	}
	n.OnSwitchCE = func(sw, port int16, pkt *netsim.Packet, now int64) {
		wiredCE(sw, port, pkt, now)
		ceSeen++
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
	if err := mirrors.flush(); err != nil {
		return err
	}
	if err := mirrors.w.Flush(); err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	if err := streamSink.Close(); err != nil {
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload      %s %.0f%% load, %d flows, %d packets\n", dist.Name, load*100, len(flows), packets)
	fmt.Fprintf(stdout, "events        %d ground-truth episodes, %d CE observations\n", len(tr.Episodes), ceSeen)
	fmt.Fprintf(stdout, "reports       %d framed epochs in reports.umstream, %d bytes (%.2f Mbps/host avg)\n",
		streamSink.Frames(), sys.ReportBytes(), sys.HostBandwidthBps(horizon)/1e6)
	fmt.Fprintf(stdout, "output        %s\n", outDir)
	return nil
}

// mirrorWriter writes a run's wire-encoded mirrors to a pcap capture as
// the switches emit them, in (time, switch, port) order. The serial engine
// emits them in time order, but CE egresses that share a nanosecond
// dispatch in event order, so the current nanosecond's mirrors are held
// back and written sorted by (switch, port). One port CE-marks at most one
// packet per nanosecond, so the key is total and the file is a function of
// the traffic alone.
type mirrorWriter struct {
	w    *pcapio.Writer
	ns   int64 // the nanosecond held mirrors share
	held []heldMirror
}

type heldMirror struct {
	rec  uevent.MirrorRecord
	wire [packet.MirrorEncodedLen]byte
}

// add takes one encoded mirror, writing out the held ones once time has
// moved past their nanosecond.
func (m *mirrorWriter) add(encoded []byte) error {
	rec, err := uevent.DecodeMirrorPacket(encoded)
	if err != nil {
		return err
	}
	switch {
	case rec.TimestampNs < m.ns:
		return fmt.Errorf("mirror at %d ns arrived after one at %d ns", rec.TimestampNs, m.ns)
	case rec.TimestampNs > m.ns:
		if err := m.flush(); err != nil {
			return err
		}
		m.ns = rec.TimestampNs
	}
	m.held = append(m.held, heldMirror{rec: rec})
	copy(m.held[len(m.held)-1].wire[:], encoded)
	return nil
}

// flush writes the held mirrors in (switch, port) order.
func (m *mirrorWriter) flush() error {
	slices.SortFunc(m.held, func(a, b heldMirror) int {
		if a.rec.Port.Switch != b.rec.Port.Switch {
			return int(a.rec.Port.Switch) - int(b.rec.Port.Switch)
		}
		return int(a.rec.Port.Port) - int(b.rec.Port.Port)
	})
	for i := range m.held {
		h := &m.held[i]
		if err := m.w.WritePacket(pcapio.Packet{TimestampNs: h.rec.TimestampNs, Data: h.wire[:], OrigLen: len(h.wire)}); err != nil {
			return err
		}
	}
	m.held = m.held[:0]
	return nil
}
