package wavesketch

import "umon/internal/flowkey"

// IsHeavy reports whether k currently owns a heavy slot.
func (f *Full) IsHeavy(k flowkey.Key) bool {
	slot := &f.heavy[f.slots.Index(k.Hash(f.cfg.HeavySeed))]
	return slot.valid && slot.key == k
}

// NewBucket builds a bucket decomposing over `levels` levels with the given
// compression sink.
func NewBucket(levels int, sink coeffSink) *Bucket {
	b := new(Bucket)
	b.Init(levels, sink)
	return b
}

// Key is the test flow i, for the package's external tests.
var Key = key
