package wavesketch

import "umon/internal/flowkey"

// IsHeavy reports whether k currently owns a heavy slot.
func (f *Full) IsHeavy(k flowkey.Key) bool { return f.heavyFor(k) != nil }

// NewBucket builds a bucket decomposing over `levels` levels with the given
// compression sink.
func NewBucket(levels int, sink coeffSink) *Bucket {
	b := new(Bucket)
	b.Init(levels, sink)
	return b
}
