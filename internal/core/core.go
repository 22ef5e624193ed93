// Package core assembles the three µMon components of Figure 4 into a
// deployable system: host monitors running WaveSketch with periodic report
// uploads, switch monitors matching-and-mirroring CE packets through the
// real wire encoding, and the analyzer consuming both. Deploy wires a full
// µMon instance into a running simulation; the same monitor types work
// standalone over any packet feed (e.g. pcap traces).
package core

import (
	"fmt"

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

// HostMonitor measures every packet a host emits and uploads one encoded
// report per measurement period.
type HostMonitor struct {
	host   int
	cfg    HostMonitorConfig
	sketch *wavesketch.Full
	emit   func(host int, encoded []byte)
	sink   ReportSink // optional: ships SealedReports instead of emit

	periodStart int64 // ns, start of the open period
	started     bool
	reportBytes int64
	reports     int
	encodeBuf   []byte // reused across periods
}

// NewHostMonitor builds a monitor; emit receives each encoded report. The
// bytes are the monitor's reused encode buffer, valid only for the
// duration of the call: an emit that keeps them must copy them.
func NewHostMonitor(host int, cfg HostMonitorConfig, emit func(host int, encoded []byte)) (*HostMonitor, error) {
	if cfg.PeriodNs <= 0 {
		return nil, fmt.Errorf("core: PeriodNs must be positive, got %d", cfg.PeriodNs)
	}
	if cfg.WindowShift == 0 {
		cfg.WindowShift = measure.DefaultWindowShift
	}
	sk, err := wavesketch.NewFull(cfg.Sketch)
	if err != nil {
		return nil, err
	}
	return &HostMonitor{host: host, cfg: cfg, sketch: sk, emit: emit}, nil
}

// SetSink routes sealed reports through a ReportSink (with the period's
// epoch attached) instead of the raw emit callback. Call before the first
// packet.
func (m *HostMonitor) SetSink(s ReportSink) { m.sink = s }

// OnPacket records one egress packet. Packets must arrive in time order;
// crossing a period boundary seals and uploads the open period first.
func (m *HostMonitor) OnPacket(f flowkey.Key, ns int64, size int) error {
	if !m.started {
		m.started = true
		m.periodStart = ns - ns%m.cfg.PeriodNs
	}
	for ns >= m.periodStart+m.cfg.PeriodNs {
		if err := m.flushPeriod(); err != nil {
			return err
		}
	}
	m.sketch.Update(f, ns>>m.cfg.WindowShift, int64(size))
	return nil
}

func (m *HostMonitor) flushPeriod() error {
	sealedAt := unixNow()
	m.sketch.Seal()
	rep := report.FromFull(m.host, m.periodStart>>m.cfg.WindowShift, m.sketch)
	m.encodeBuf = rep.AppendEncode(m.encodeBuf[:0])
	m.reportBytes += int64(len(m.encodeBuf))
	m.reports++
	if m.sink != nil {
		err := m.sink.Ship(SealedReport{
			Host:          m.host,
			Epoch:         uint64(m.periodStart / m.cfg.PeriodNs),
			PeriodStartNs: m.periodStart,
			Encoded:       m.encodeBuf,
			SealedAtNs:    sealedAt,
		})
		if err != nil {
			return fmt.Errorf("core: shipping host %d report: %w", m.host, err)
		}
	} else if m.emit != nil {
		m.emit(m.host, m.encodeBuf)
	}
	m.sketch.Reset()
	m.periodStart += m.cfg.PeriodNs
	return nil
}

// Flush uploads the final partial period.
func (m *HostMonitor) Flush() error {
	if !m.started {
		return nil
	}
	return m.flushPeriod()
}

// Stats reports upload accounting: total report bytes and report count.
func (m *HostMonitor) Stats() (bytes int64, reports int) {
	return m.reportBytes, m.reports
}

// BandwidthBps returns the average upload bandwidth given the monitored
// duration.
func (m *HostMonitor) BandwidthBps(durationNs int64) float64 {
	if durationNs <= 0 {
		return 0
	}
	return float64(m.reportBytes) * 8 / float64(durationNs) * 1e9
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
// feeding one analyzer over the real wire formats.
type System struct {
	cfg       SystemConfig
	Analyzer  *analyzer.Analyzer
	hosts     []*HostMonitor
	switches  []*SwitchMonitor
	decodeErr error
}

// Deploy attaches µMon to a simulated network: every host egress packet
// updates that host's WaveSketch, every switch CE egress runs through the
// sampling ACL, and both paths reach the analyzer as encoded bytes that
// are decoded again on arrival — exercising the full pipeline.
func Deploy(n *netsim.Network, topo *netsim.Topology, cfg SystemConfig) (*System, error) {
	s := &System{cfg: cfg, Analyzer: analyzer.New()}
	for h := 0; h < topo.Hosts; h++ {
		hm, err := NewHostMonitor(h, cfg.Host, func(_ int, encoded []byte) {
			rep, err := report.DecodeBytes(encoded)
			if err != nil {
				s.decodeErr = err
				return
			}
			s.Analyzer.AddReport(rep)
		})
		if err != nil {
			return nil, err
		}
		s.hosts = append(s.hosts, hm)
	}
	for sw := 0; sw < topo.Switches; sw++ {
		s.switches = append(s.switches, NewSwitchMonitor(int16(sw), cfg.Switch, func(encoded []byte) {
			if err := s.Analyzer.AddMirrorPacket(encoded); err != nil {
				s.decodeErr = err
			}
		}))
	}
	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		if err := s.hosts[host].OnPacket(pkt.Flow, now, int(pkt.Size)); err != nil {
			s.decodeErr = err
		}
	}
	n.OnSwitchCE = func(sw, port int16, pkt *netsim.Packet, now int64) {
		s.switches[sw].OnCEPacket(port, now, pkt.Flow, pkt.PSN, pkt.Size)
	}
	return s, nil
}

// Finish flushes the final reporting periods and surfaces any pipeline
// error.
func (s *System) Finish() error {
	for _, hm := range s.hosts {
		if err := hm.Flush(); err != nil {
			return err
		}
	}
	return s.decodeErr
}

// HostBandwidthBps averages the hosts' report-upload bandwidth.
func (s *System) HostBandwidthBps(durationNs int64) float64 {
	if len(s.hosts) == 0 {
		return 0
	}
	var sum float64
	for _, hm := range s.hosts {
		sum += hm.BandwidthBps(durationNs)
	}
	return sum / float64(len(s.hosts))
}

// MirrorStats totals the switches' mirror accounting.
func (s *System) MirrorStats() (packets, bytes int64) {
	for _, sm := range s.switches {
		p, b := sm.Stats()
		packets += p
		bytes += b
	}
	return packets, bytes
}
