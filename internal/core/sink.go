package core

import (
	"io"
	"sync"
	"time"

	"umon/internal/report"
)

// unixNow is the wall clock lifecycle stamps are taken from.
func unixNow() int64 { return time.Now().UnixNano() }

// SealedReport is one epoch's encoded upload from one host: the unit the
// streaming deployment ships from hosts to the collector.
type SealedReport struct {
	Host int
	// Epoch is the measurement period index: PeriodStartNs / PeriodNs.
	Epoch         uint64
	PeriodStartNs int64
	// Encoded is the report in the wire version hosts write
	// (report.AppendSealed). It is valid only for the duration of Ship —
	// sinks that retain it must copy (the monitor reuses its encode buffer
	// for the next epoch).
	Encoded []byte
	// SealedAtNs is the wall-clock time (unix ns) the seal began; 0 means
	// unstamped. Stamp-aware sinks pair it with their own ship time into a
	// lifecycle stamp the collector turns into per-stage latency.
	SealedAtNs int64
}

// ReportSink receives sealed reports from host monitors. Implementations
// decide the transport: a framed stream file, an in-process decode, a
// network connection. Ship may be called concurrently by different hosts;
// implementations serialize internally.
type ReportSink interface {
	Ship(r SealedReport) error
	// Close finishes the sink, returning any write error it met. It does
	// not close any underlying file or connection the caller owns.
	Close() error
}

// StreamSink ships reports as framed records of the epoch-rotated stream
// format onto one writer — a file, a pipe or a net.Conn. Safe for
// concurrent Ship across hosts. Each frame is written whole as it is
// shipped, and the sink keeps no record of past frames beyond a count.
// Reports carrying a seal stamp are followed by a FrameStamp recording
// (seal, ship) wall times — the collector's raw material for the
// seal→ship→admit→detect latency decomposition.
type StreamSink struct {
	mu  sync.Mutex
	sw  *report.StreamWriter
	now func() int64 // wall clock (unix ns); swappable in tests
}

// NewStreamSink writes the stream header onto w.
func NewStreamSink(w io.Writer) (*StreamSink, error) {
	sw, err := report.NewStreamWriter(w)
	if err != nil {
		return nil, err
	}
	return &StreamSink{sw: sw, now: unixNow}, nil
}

// Ship frames one sealed report, plus its lifecycle stamp when the
// monitor recorded a seal time.
func (s *StreamSink) Ship(r SealedReport) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sw.WriteEncoded(r.Epoch, r.Host, r.Encoded); err != nil {
		return err
	}
	if r.SealedAtNs == 0 {
		return nil
	}
	return s.sw.WriteStamp(r.Epoch, r.Host, report.EpochStamp{
		SealNs: r.SealedAtNs,
		ShipNs: s.now(),
	})
}

// Frames reports how many reports have been framed.
func (s *StreamSink) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sw.Frames()
}

// Close returns the first write error the stream met, if any; it writes
// nothing.
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sw.Close()
}

// FuncSink adapts a function to the ReportSink interface. The function
// must not retain r.Encoded past the call.
type FuncSink func(SealedReport) error

// Ship implements ReportSink.
func (f FuncSink) Ship(r SealedReport) error { return f(r) }

// Close implements ReportSink.
func (FuncSink) Close() error { return nil }
