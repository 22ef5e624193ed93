package wavesketch

import (
	"umon/internal/flowkey"
	"umon/internal/wavelet"
)

// BucketExport is the uploadable content of one non-empty bucket: exactly
// the (w0, A, D) triple of §4.2's bandwidth analysis plus its position in
// the sketch so the analyzer can answer hashed queries.
type BucketExport struct {
	Row     int
	Index   int
	W0      int64
	Len     int // windows covered
	Approx  []int64
	Details []wavelet.DetailRef
}

// Export appends the non-empty buckets of a sealed sketch to dst in
// ascending (row, index) order, for report encoding. A and D alias the
// sketch's own storage: encode before reusing the sketch.
func (s *Basic) Export(dst []BucketExport) []BucketExport {
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.Empty() {
			continue
		}
		dst = append(dst, BucketExport{
			Row: i / s.cfg.Width, Index: i % s.cfg.Width,
			W0: b.W0(), Len: b.Len(),
			Approx:  b.Approx(),
			Details: b.Details(),
		})
	}
	return dst
}

// HeavyExport is one heavy-part entry of a full sketch.
type HeavyExport struct {
	Key     flowkey.Key
	W0      int64
	Len     int
	Approx  []int64
	Details []wavelet.DetailRef
}

// ExportHeavy appends the elected heavy flows of a sealed full sketch to
// dst, aliasing the sketch as Export does.
func (f *Full) ExportHeavy(dst []HeavyExport) []HeavyExport {
	for i := range f.heavy {
		s := &f.heavy[i]
		if !s.valid || s.bucket.Empty() {
			continue
		}
		dst = append(dst, HeavyExport{
			Key: s.key,
			W0:  s.bucket.W0(), Len: s.bucket.Len(),
			Approx:  s.bucket.Approx(),
			Details: s.bucket.Details(),
		})
	}
	return dst
}

// Light exposes the light part of a full sketch (for report encoding).
func (f *Full) Light() *Basic { return f.light }
