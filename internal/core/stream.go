// The host monitor: a host seals its live WaveSketch at every epoch
// boundary and ships the encoded report through a pluggable sink, on the
// goroutine that fed the packet which crossed the boundary.
package core

import (
	"fmt"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// StreamMonitorConfig parameterizes a host monitor.
type StreamMonitorConfig struct {
	HostMonitorConfig
}

// StreamHostMonitor measures one host's egress continuously, sealing at
// every epoch boundary and shipping through the sink. Not safe for
// concurrent use: per-host streams are single-producer.
type StreamHostMonitor struct {
	host int
	cfg  StreamMonitorConfig
	sink ReportSink

	live *wavesketch.Full
	// The header every report of this host carries, the curve lists reused
	// as views of the sketch being sealed, and the bytes they encode to.
	hdr       report.Header
	buckets   []wavesketch.BucketExport
	heavy     []wavesketch.HeavyExport
	encodeBuf []byte

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
	if sink == nil {
		return nil, fmt.Errorf("core: streaming monitor needs a sink")
	}
	live, err := wavesketch.NewFull(cfg.Sketch)
	if err != nil {
		return nil, err
	}
	sk := live.Light().Config()
	hdr := report.Header{Host: host, WindowShift: measure.DefaultWindowShift,
		Meta: report.SketchMeta{Rows: sk.Rows, Width: sk.Width, Levels: sk.Levels, Seed: sk.Seed}}
	return &StreamHostMonitor{host: host, cfg: cfg, sink: sink, live: live, hdr: hdr}, nil
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
	m.live.Update(f, measure.WindowOf(ns), int64(size))
	return nil
}

// rotate closes the open epoch: it seals the sketch, encodes it straight
// off the sketch's own storage into the reused buffer, ships the bytes and
// resets the sketch. Steady state allocates nothing. An epoch that saw no
// packet leaves the sketch untouched and ships a report of the header
// alone: a host coming back from a long silence owes one of those per epoch
// it skipped.
func (m *StreamHostMonitor) rotate() error {
	sealedAt := unixNow()
	periodStart := m.periodStart
	m.periodStart += m.cfg.PeriodNs
	m.hdr.PeriodStart = measure.WindowOf(periodStart)
	m.buckets, m.heavy = m.buckets[:0], m.heavy[:0]
	busy := m.live.Light().Updates() > 0
	if busy {
		m.live.Seal()
		m.buckets = m.live.Light().Export(m.buckets)
		m.heavy = m.live.ExportHeavy(m.heavy)
	}
	m.encodeBuf = report.AppendSealed(m.encodeBuf[:0], m.hdr, m.buckets, m.heavy)
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
	if err != nil {
		err = fmt.Errorf("core: shipping host %d epoch report: %w", m.host, err)
		if m.err == nil {
			m.err = err
		}
		return err
	}
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
