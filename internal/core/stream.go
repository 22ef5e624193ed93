// The host monitor: a host seals its live WaveSketch at every epoch
// boundary and ships the encoded report through a pluggable sink, on the
// goroutine that fed the packet which crossed the boundary.
package core

import (
	"fmt"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/wavesketch"
)

// HostStreamStats is the host-side telemetry of the streaming deployment.
// All handles no-op when nil; a zero value is the disabled configuration.
type HostStreamStats struct {
	// EpochsSealed counts epoch boundaries crossed (sketches sealed).
	EpochsSealed *telemetry.Counter
	// ReportsShipped counts reports handed to the sink successfully.
	ReportsShipped *telemetry.Counter
	// ShipErrors counts sink failures (the first is also surfaced by
	// Close).
	ShipErrors *telemetry.Counter
	// SealNs observes the seal+encode+ship latency per epoch.
	SealNs *telemetry.Histogram
}

// NewHostStreamStats registers the host streaming metric set on reg (nil
// reg yields nil, the disabled configuration).
func NewHostStreamStats(reg *telemetry.Registry) *HostStreamStats {
	if reg == nil {
		return nil
	}
	return &HostStreamStats{
		EpochsSealed:   reg.Counter("umon_host_epochs_sealed_total", "epoch boundaries crossed (open epoch sealed and shipped)"),
		ReportsShipped: reg.Counter("umon_host_reports_shipped_total", "sealed reports handed to the sink"),
		ShipErrors:     reg.Counter("umon_host_ship_errors_total", "sink failures while shipping sealed reports"),
		SealNs:         reg.Histogram("umon_host_seal_ns", "seal+encode+ship latency per epoch (ns)"),
	}
}

// StreamMonitorConfig parameterizes a host monitor.
type StreamMonitorConfig struct {
	HostMonitorConfig
	// Stats is optional host-side telemetry.
	Stats *HostStreamStats
}

// StreamHostMonitor measures one host's egress continuously, sealing at
// every epoch boundary and shipping through the sink. Not safe for
// concurrent use: per-host streams are single-producer.
type StreamHostMonitor struct {
	host int
	cfg  StreamMonitorConfig
	sink ReportSink

	live *wavesketch.Full
	// The header every report of this host carries, its curve lists reused
	// as views of the sketch being sealed, and the bytes they encode to.
	rep       report.HostReport
	encodeBuf []byte
	stats     HostStreamStats

	periodStart int64
	started     bool

	reportBytes int64
	reports     int
	err         error // the first ship error
}

// NewStreamHostMonitor builds a host monitor shipping into sink.
func NewStreamHostMonitor(host int, cfg StreamMonitorConfig, sink ReportSink) (*StreamHostMonitor, error) {
	if cfg.PeriodNs <= 0 {
		return nil, fmt.Errorf("core: PeriodNs must be positive, got %d", cfg.PeriodNs)
	}
	if cfg.WindowShift == 0 {
		cfg.WindowShift = measure.DefaultWindowShift
	}
	if sink == nil {
		return nil, fmt.Errorf("core: streaming monitor needs a sink")
	}
	live, err := wavesketch.NewFull(cfg.Sketch)
	if err != nil {
		return nil, err
	}
	m := &StreamHostMonitor{host: host, cfg: cfg, sink: sink, live: live, rep: *report.FromFull(host, 0, live)}
	m.rep.WindowShift = uint8(cfg.WindowShift)
	if cfg.Stats != nil {
		m.stats = *cfg.Stats
	}
	return m, nil
}

// OnPacket records one egress packet. Packets must arrive in time order;
// crossing an epoch boundary seals and ships the open epoch before the
// packet lands in the new one, and returns the ship's error.
func (m *StreamHostMonitor) OnPacket(f flowkey.Key, ns int64, size int) error {
	if !m.started {
		m.started = true
		m.periodStart = ns - ns%m.cfg.PeriodNs
	}
	for ns >= m.periodStart+m.cfg.PeriodNs {
		if err := m.rotate(); err != nil {
			return err
		}
	}
	m.live.Update(f, ns>>m.cfg.WindowShift, int64(size))
	return nil
}

// rotate closes the open epoch: it seals the sketch, encodes it straight
// off the sketch's own storage into the reused buffer, ships the bytes and
// resets the sketch. Steady state allocates nothing. An epoch that saw no
// packet leaves the sketch untouched and ships a report of the header
// alone: a host coming back from a long silence owes one of those per epoch
// it skipped.
func (m *StreamHostMonitor) rotate() error {
	m.stats.EpochsSealed.Inc()
	span := telemetry.TimeHistogram(m.stats.SealNs)
	sealedAt := unixNow()
	periodStart := m.periodStart
	m.periodStart += m.cfg.PeriodNs
	rep := &m.rep
	rep.PeriodStart = periodStart >> m.cfg.WindowShift
	rep.Buckets, rep.Heavy = rep.Buckets[:0], rep.Heavy[:0]
	busy := m.live.Light().Updates() > 0
	if busy {
		m.live.Seal()
		rep.Buckets = m.live.Light().Export(rep.Buckets)
		rep.Heavy = m.live.ExportHeavy(rep.Heavy)
	}
	m.encodeBuf = rep.AppendEncode(m.encodeBuf[:0])
	if busy {
		m.live.Reset() // the lists above point into it: only now
	}
	m.reportBytes += int64(len(m.encodeBuf))
	m.reports++
	err := m.sink.Ship(SealedReport{
		Host:          m.host,
		Epoch:         uint64(periodStart / m.cfg.PeriodNs),
		PeriodStartNs: periodStart,
		Encoded:       m.encodeBuf,
		SealedAtNs:    sealedAt,
	})
	span()
	if err != nil {
		m.stats.ShipErrors.Inc()
		err = fmt.Errorf("core: shipping host %d epoch report: %w", m.host, err)
		if m.err == nil {
			m.err = err
		}
		return err
	}
	m.stats.ReportsShipped.Inc()
	return nil
}

// Close seals and ships the final partial epoch and returns the first ship
// error of the monitor's life. The sink is left open (it is shared across
// hosts); the owner closes it after every monitor has closed.
func (m *StreamHostMonitor) Close() error {
	if m.started {
		_ = m.rotate() // a failure is kept in m.err
	}
	return m.err
}

// Stats reports upload accounting: total report bytes and report count.
func (m *StreamHostMonitor) Stats() (bytes int64, reports int) {
	return m.reportBytes, m.reports
}
