package telemetry

// Sum totals all shards.
func (v *CounterVec) Sum() int64 {
	if v == nil {
		return 0
	}
	var t int64
	for i := range v.cells {
		t += v.cells[i].Value()
	}
	return t
}
