package wavesketch

// NewBucket builds a bucket decomposing over `levels` levels with the given
// compression sink.
func NewBucket(levels int, sink coeffSink) *Bucket {
	b := new(Bucket)
	b.Init(levels, sink)
	return b
}
