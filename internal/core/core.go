// Package core assembles the three µMon components of Figure 4 into a
// deployable system: host monitors running WaveSketch and shipping one
// sealed report per epoch through a sink (stream.go, sink.go), switch
// monitors matching-and-mirroring CE packets through the real wire
// encoding, and the analyzer consuming both. Wire attaches the monitors to
// a simulation given where reports and mirrors go, and Deploy is Wire with
// an in-process analyzer at the far end; the same monitor types work
// standalone over any packet feed (e.g. pcap traces).
package core

import (
	"sync"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/packet"
	"umon/internal/report"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

// HostMonitorConfig parameterizes one host's µFlow measurement.
type HostMonitorConfig struct {
	// Sketch configures the full-version WaveSketch.
	Sketch wavesketch.FullConfig
	// PeriodNs is the measurement/reporting period (paper: 20 ms).
	PeriodNs int64
	// WindowShift converts nanoseconds to windows (default 13 → 8.192 µs).
	WindowShift uint
}

// DefaultHostMonitor returns the evaluation configuration.
func DefaultHostMonitor() HostMonitorConfig {
	return HostMonitorConfig{
		Sketch:      wavesketch.DefaultFull(),
		PeriodNs:    20_000_000,
		WindowShift: measure.DefaultWindowShift,
	}
}

// SwitchMonitorConfig parameterizes µEvent capture on one switch.
type SwitchMonitorConfig struct {
	Rule uevent.ACLRule
	// TruncBytes truncates mirrored copies; 0 mirrors full packets.
	TruncBytes int32
}

// SwitchMonitor applies the match-sample-mirror pipeline of §5 to a
// switch's CE egress feed, emitting wire-encoded mirror packets.
type SwitchMonitor struct {
	sw       int16
	cfg      SwitchMonitorConfig
	emit     func(encoded []byte)
	scratch  []byte
	mirrored int64
	bytes    int64
}

// NewSwitchMonitor builds a monitor for switch sw. The emit callback's
// slice is a scratch buffer reused for the next mirror packet: consume or
// copy it before returning, do not retain it.
func NewSwitchMonitor(sw int16, cfg SwitchMonitorConfig, emit func(encoded []byte)) *SwitchMonitor {
	return &SwitchMonitor{
		sw: sw, cfg: cfg, emit: emit,
		scratch: make([]byte, 0, packet.MirrorEncodedLen),
	}
}

// OnCEPacket feeds one CE-marked egress observation through the ACL.
func (m *SwitchMonitor) OnCEPacket(port int16, ns int64, f flowkey.Key, psn uint32, size int32) {
	if !m.cfg.Rule.Matches(true, psn) {
		return
	}
	rec := uevent.MirrorRecord{
		Port:        netsim.PortID{Switch: m.sw, Port: port},
		TimestampNs: ns,
		PSN:         psn,
		OrigBytes:   size,
		WireBytes:   size,
		Flow:        f,
	}
	if m.cfg.TruncBytes > 0 && rec.WireBytes > m.cfg.TruncBytes {
		rec.WireBytes = m.cfg.TruncBytes
	}
	m.mirrored++
	m.bytes += int64(rec.WireBytes)
	if m.emit != nil {
		m.scratch = uevent.AppendMirrorPacket(m.scratch[:0], rec)
		m.emit(m.scratch)
	}
}

// Stats reports mirror accounting.
func (m *SwitchMonitor) Stats() (packets, bytes int64) { return m.mirrored, m.bytes }

// SystemConfig parameterizes a full µMon deployment.
type SystemConfig struct {
	Host   HostMonitorConfig
	Switch SwitchMonitorConfig
}

// DefaultSystem uses the paper's evaluation settings (1/64 sampling).
func DefaultSystem() SystemConfig {
	return SystemConfig{
		Host:   DefaultHostMonitor(),
		Switch: SwitchMonitorConfig{Rule: uevent.ACLRule{SampleBits: 6}},
	}
}

// System is a deployed µMon instance: per-host and per-switch monitors
// wired into one simulated network, feeding a report sink and a mirror
// consumer over the real wire formats.
type System struct {
	// Analyzer consumes both feeds of a Deploy'd system; nil after Wire.
	Analyzer *analyzer.Analyzer
	hosts    []*StreamHostMonitor
	switches []*SwitchMonitor
	// The netsim callbacks fire concurrently when the network is sharded
	// (serialized per host and per switch, not globally), so the first
	// pipeline error is kept under a mutex.
	errMu sync.Mutex
	err   error
}

// Wire attaches the measurement plane of Figure 4 to a simulated network:
// every host egress packet updates that host's WaveSketch, whose sealed
// epochs ship into sink, and every switch CE egress runs through the
// sampling ACL, whose wire-encoded mirrors go to emit (the slice is the
// switch's scratch buffer: consume or copy it before returning). At more
// than one shard the sink and emit are called concurrently, a host's and a
// switch's calls in order.
func Wire(n *netsim.Network, topo *netsim.Topology, cfg SystemConfig, sink ReportSink, emit func(encoded []byte) error) (*System, error) {
	s := &System{}
	for h := 0; h < topo.Hosts; h++ {
		hm, err := NewStreamHostMonitor(h, StreamMonitorConfig{HostMonitorConfig: cfg.Host}, sink)
		if err != nil {
			return nil, err
		}
		s.hosts = append(s.hosts, hm)
	}
	onMirror := func(encoded []byte) {
		if err := emit(encoded); err != nil {
			s.fail(err)
		}
	}
	for sw := 0; sw < topo.Switches; sw++ {
		s.switches = append(s.switches, NewSwitchMonitor(int16(sw), cfg.Switch, onMirror))
	}
	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		if err := s.hosts[host].OnPacket(pkt.Flow, now, int(pkt.Size)); err != nil {
			s.fail(err)
		}
	}
	n.OnSwitchCE = func(sw, port int16, pkt *netsim.Packet, now int64) {
		s.switches[sw].OnCEPacket(port, now, pkt.Flow, pkt.PSN, pkt.Size)
	}
	return s, nil
}

// Deploy wires µMon to a simulated network with an in-process analyzer at
// the far end: both paths reach it as encoded bytes that are decoded again
// on arrival — exercising the full pipeline. The analyzer ingests on the
// caller's goroutine, so the network must run unsharded.
func Deploy(n *netsim.Network, topo *netsim.Topology, cfg SystemConfig) (*System, error) {
	an := analyzer.New()
	s, err := Wire(n, topo, cfg, FuncSink(func(r SealedReport) error {
		rep, err := report.DecodeBytes(r.Encoded)
		if err != nil {
			return err
		}
		an.AddReport(rep)
		return nil
	}), an.AddMirrorPacket)
	if err != nil {
		return nil, err
	}
	s.Analyzer = an
	return s, nil
}

// fail records a pipeline error; Finish returns the first one recorded.
func (s *System) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Finish seals the final reporting periods and surfaces the first pipeline
// error.
func (s *System) Finish() error {
	for _, hm := range s.hosts {
		if err := hm.Close(); err != nil {
			s.fail(err)
		}
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// ReportBytes totals the hosts' report uploads.
func (s *System) ReportBytes() int64 {
	var sum int64
	for _, hm := range s.hosts {
		b, _ := hm.Stats()
		sum += b
	}
	return sum
}

// HostBandwidthBps averages the hosts' report-upload bandwidth.
func (s *System) HostBandwidthBps(durationNs int64) float64 {
	if len(s.hosts) == 0 || durationNs <= 0 {
		return 0
	}
	return float64(s.ReportBytes()) * 8 / float64(durationNs) * 1e9 / float64(len(s.hosts))
}
