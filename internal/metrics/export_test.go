package metrics

// Recall = captured / total, 1 when total is zero.
func Recall(captured, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(captured) / float64(total)
}
