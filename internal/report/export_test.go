package report

import (
	"errors"
	"io"
	"testing"

	"umon/internal/flowkey"
)

// HeavyFlows lists the flows with heavy entries, in report order.
func (q *Queryable) HeavyFlows() []flowkey.Key {
	out := make([]flowkey.Key, 0, len(q.heavy))
	nb := len(q.rep.curves) - len(q.rep.keys)
	for i, k := range q.rep.keys {
		if q.heavy[k] == int32(nb+i) {
			out = append(out, k)
		}
	}
	return out
}

// IsHeavy reports whether the flow has a dedicated heavy entry.
func (q *Queryable) IsHeavy(f flowkey.Key) bool {
	_, ok := q.heavy[f]
	return ok
}

// MightSee reports whether this report can answer a non-zero estimate for
// the flow: either a dedicated heavy entry exists, or every sketch row has
// a non-empty bucket at the flow's hash position. When it returns false the
// flow's estimate is identically zero. It is the per-report predicate the
// routing index answers for many reports at once, and the reference
// TestRoutedSetMatchesMightSee holds Route to.
func (q *Queryable) MightSee(f flowkey.Key) bool {
	if _, ok := q.heavy[f]; ok {
		return true
	}
	p := f.Pack()
	for r := range q.seeds {
		idx := q.width.Index(p.Hash(q.seeds[r]))
		if q.bucket(r, idx) < 0 {
			return false
		}
	}
	return true
}

// WriteReport encodes r and frames it under epoch.
func (sw *StreamWriter) WriteReport(epoch uint64, r *slabReport) error {
	return sw.WriteEncoded(epoch, r.Host, r.encode())
}

// EpochReport is one decoded report frame of a stream.
type EpochReport struct {
	Epoch  uint64
	Report *HostReport
}

// ReadStream reads r to the end of the stream, decoding every report
// frame. Frames that fail their CRC are skipped (counted in the returned
// badFrames) so one flipped bit does not discard a whole file.
func ReadStream(r io.Reader) (reports []EpochReport, badFrames int, err error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, 0, err
	}
	var f Frame
	for {
		err := sr.Next(&f)
		if err == io.EOF {
			return reports, badFrames, nil
		}
		if errors.Is(err, ErrCRC) {
			badFrames++
			continue
		}
		if err != nil {
			return reports, badFrames, err
		}
		if f.Type != FrameReport {
			continue // stamps and future metadata frames ride alongside
		}
		rep, err := DecodeBytes(f.Payload)
		if err != nil {
			badFrames++
			continue
		}
		reports = append(reports, EpochReport{Epoch: f.Epoch, Report: rep})
	}
}

// SketchReports are the reports benchReports' sketches make, eight hosts
// of each geometry, by geometry: what every admission path must take.
func SketchReports(tb testing.TB) map[string][]*HostReport {
	out := map[string][]*HostReport{}
	for _, c := range benchReports {
		for host := 0; host < 8; host++ {
			out[c.name] = append(out[c.name], c.build(tb, host))
		}
	}
	return out
}

// OrphanReports are the orphanReports fixtures in which a heavy key's
// light bucket is missing: what every admission path must refuse.
func OrphanReports(tb testing.TB) map[string]*HostReport {
	orphaned, _ := orphanReports(tb)
	out := map[string]*HostReport{}
	for name, r := range orphaned {
		if name != "whole" {
			out[name] = build(tb, r)
		}
	}
	return out
}
