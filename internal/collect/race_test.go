//go:build race

package collect

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so a pooled scratch can miss and allocate:
// the zero-allocation assertions hold only without it.
const raceEnabled = true
