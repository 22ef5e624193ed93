// The host monitor: a host seals its live WaveSketch at every epoch
// boundary and ships the encoded report through a pluggable sink.
//
// In Async mode the sealer is double-buffered: two identically-configured sketches
// alternate between the ingest path and the seal/encode/ship path, so at
// an epoch boundary ingest swaps to the pre-reset spare and continues
// immediately while the sealed sketch drains in the background — no
// ingest stall, memory bounded at exactly two sketches per host.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// SealNs observes the off-path seal+encode+ship latency per epoch.
	SealNs *telemetry.Histogram
}

// NewHostStreamStats registers the host streaming metric set on reg (nil
// reg yields nil, the disabled configuration).
func NewHostStreamStats(reg *telemetry.Registry) *HostStreamStats {
	if reg == nil {
		return nil
	}
	return &HostStreamStats{
		EpochsSealed:   reg.Counter("umon_host_epochs_sealed_total", "epoch boundaries crossed (live sketch sealed and swapped)"),
		ReportsShipped: reg.Counter("umon_host_reports_shipped_total", "sealed reports handed to the sink"),
		ShipErrors:     reg.Counter("umon_host_ship_errors_total", "sink failures while shipping sealed reports"),
		SealNs:         reg.Histogram("umon_host_seal_ns", "off-path seal+encode+ship latency per epoch (ns)"),
	}
}

// StreamMonitorConfig parameterizes a host monitor.
type StreamMonitorConfig struct {
	HostMonitorConfig
	// Async runs seal/encode/ship on a background goroutine. Synchronous
	// mode (the default) keeps everything on the caller's goroutine —
	// deterministic, the right choice when replaying a trace; Async is the
	// deployment shape, where ingest must never wait on the sink.
	Async bool
	// Stats is optional host-side telemetry.
	Stats *HostStreamStats
}

// sealJob is one epoch to ship; a nil sketch is an idle epoch, which ships
// its header alone.
type sealJob struct {
	sketch      *wavesketch.Full
	periodStart int64
}

// StreamHostMonitor measures one host's egress continuously, sealing at
// every epoch boundary and shipping through the sink. OnPacket must be
// called from one goroutine (per-host streams are single-producer); the
// sealer goroutine is the only other toucher of monitor state.
type StreamHostMonitor struct {
	host int
	cfg  StreamMonitorConfig
	sink ReportSink

	live    *wavesketch.Full
	spareCh chan *wavesketch.Full // pre-reset sketches ready to swap in
	sealCh  chan sealJob
	wg      sync.WaitGroup

	// Owned by the sealer (or the caller when !Async): the header every
	// report of this host carries, its curve lists reused as views of the
	// sketch being sealed, and the bytes they encode to.
	rep       report.HostReport
	encodeBuf []byte
	stats     HostStreamStats

	periodStart int64
	started     bool

	reportBytes atomic.Int64
	reports     atomic.Int64
	errMu       sync.Mutex
	err         error
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
	if cfg.Async {
		spare, err := wavesketch.NewFull(cfg.Sketch)
		if err != nil {
			return nil, err
		}
		m.spareCh = make(chan *wavesketch.Full, 1)
		m.spareCh <- spare
		m.sealCh = make(chan sealJob, 1)
		m.wg.Add(1)
		go m.sealer()
	}
	return m, nil
}

// OnPacket records one egress packet. Packets must arrive in time order;
// crossing an epoch boundary seals the open epoch (asynchronously when
// configured) before the packet lands in the new one.
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

// rotate seals the open epoch. Async: swap the live sketch with the
// pre-reset spare (waiting only if the sealer is still draining the
// previous epoch — memory stays bounded at two sketches) and queue the
// seal. Sync: seal inline. An epoch that saw no packet leaves the sketch
// where it is, untouched, and ships a report of the header alone: a host
// coming back from a long silence owes one of those per epoch it skipped.
func (m *StreamHostMonitor) rotate() error {
	m.stats.EpochsSealed.Inc()
	job := sealJob{periodStart: m.periodStart}
	m.periodStart += m.cfg.PeriodNs
	if m.live.Light().Updates() > 0 {
		job.sketch = m.live
	}
	if m.cfg.Async {
		if job.sketch != nil {
			m.live = <-m.spareCh
		}
		m.sealCh <- job
		return m.firstErr()
	}
	return m.sealAndShip(job)
}

// sealer drains seal jobs off the ingest path, returning each reset
// sketch as the next spare.
func (m *StreamHostMonitor) sealer() {
	defer m.wg.Done()
	for job := range m.sealCh {
		if err := m.sealAndShip(job); err != nil {
			m.setErr(err)
		}
		if job.sketch != nil {
			m.spareCh <- job.sketch
		}
	}
}

// sealAndShip seals the job's sketch, encodes it straight off the sketch's
// own storage into the reused buffer, ships the bytes and resets the
// sketch. Steady state allocates nothing.
func (m *StreamHostMonitor) sealAndShip(job sealJob) error {
	span := telemetry.TimeHistogram(m.stats.SealNs)
	sealedAt := unixNow()
	rep := &m.rep
	rep.PeriodStart = job.periodStart >> m.cfg.WindowShift
	rep.Buckets, rep.Heavy = rep.Buckets[:0], rep.Heavy[:0]
	sk := job.sketch
	if sk != nil {
		sk.Seal()
		rep.Buckets = sk.Light().Export(rep.Buckets)
		rep.Heavy = sk.ExportHeavy(rep.Heavy)
	}
	m.encodeBuf = rep.AppendEncode(m.encodeBuf[:0])
	if sk != nil {
		sk.Reset() // the lists above point into it: only now
	}
	m.reportBytes.Add(int64(len(m.encodeBuf)))
	m.reports.Add(1)
	err := m.sink.Ship(SealedReport{
		Host:          m.host,
		Epoch:         uint64(job.periodStart / m.cfg.PeriodNs),
		PeriodStartNs: job.periodStart,
		Encoded:       m.encodeBuf,
		SealedAtNs:    sealedAt,
	})
	span()
	if err != nil {
		m.stats.ShipErrors.Inc()
		return fmt.Errorf("core: shipping host %d epoch report: %w", m.host, err)
	}
	m.stats.ReportsShipped.Inc()
	return nil
}

func (m *StreamHostMonitor) setErr(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
}

func (m *StreamHostMonitor) firstErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// Close seals and ships the final partial epoch, stops the sealer and
// surfaces the first pipeline error. The sink is left open (it is shared
// across hosts); the owner closes it after every monitor has closed.
func (m *StreamHostMonitor) Close() error {
	if m.started {
		if err := m.rotate(); err != nil {
			m.setErr(err)
		}
	}
	if m.cfg.Async {
		close(m.sealCh)
		m.wg.Wait()
	}
	return m.firstErr()
}

// Stats reports upload accounting: total report bytes and report count.
func (m *StreamHostMonitor) Stats() (bytes int64, reports int) {
	return m.reportBytes.Load(), int(m.reports.Load())
}
