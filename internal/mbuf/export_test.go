package mbuf

// Cap reports the backing size.
func (b *Buf) Cap() int { return len(b.data) }

// Refs reports the current holder count.
func (b *Buf) Refs() int32 { return b.refs.Load() }
