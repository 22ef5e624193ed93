//go:build race

package netsim

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account: allocation counts hold only without it.
const raceEnabled = true
