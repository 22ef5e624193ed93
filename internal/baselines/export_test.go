package baselines

// Segments reports the total stored segments (for tests).
func (p *PersistCMS) Segments() int {
	var n int
	for r := range p.bucket {
		for _, b := range p.bucket[r] {
			n += len(b.segments)
		}
	}
	return n
}
