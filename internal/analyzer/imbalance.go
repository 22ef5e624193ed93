package analyzer

import (
	"sort"

	"umon/internal/netsim"
)

// Load-imbalance detection (§5 lists "load imbalances" among the µEvents).
// ECMP polarization shows up at the analyzer as congestion activity
// concentrated on one of a switch's equal-cost ports while its siblings
// stay quiet; the mirror stream already carries exactly that signal.

// ImbalanceFinding reports skewed congestion activity across one switch's
// ports.
type ImbalanceFinding struct {
	Switch int16
	// PortPackets counts mirrored packets per port of the switch.
	PortPackets map[int16]int
	// Score is max/mean across the observed ports (1 = perfectly even).
	Score float64
}

// HottestPort returns the port with the most activity.
func (f *ImbalanceFinding) HottestPort() int16 {
	var best int16
	bestN := -1
	for p, n := range f.PortPackets {
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	return best
}

// DetectImbalanceWithPorts aggregates the ingested mirrors per (switch,
// port) and flags switches whose activity skew reaches minScore (e.g. 2.0 =
// the hottest port carries twice the per-port average). Switches with fewer
// than minRecords mirrored packets are skipped — too little signal.
//
// portCount is the per-switch port inventory: a listed switch's silent
// ports count as zero-activity, so total polarization scores highest.
// Without it only ports with activity enter the average, and perfect
// polarization (all congestion on one port, siblings silent) cannot be seen.
func (a *Analyzer) DetectImbalanceWithPorts(minRecords int, minScore float64, portCount map[int16]int) []ImbalanceFinding {
	if minRecords <= 0 {
		minRecords = 32
	}
	if minScore <= 0 {
		minScore = 2
	}
	perSwitch := make(map[int16]map[int16]int)
	for port, p := range a.clusters {
		ports := perSwitch[port.Switch]
		if ports == nil {
			ports = make(map[int16]int)
			perSwitch[port.Switch] = ports
		}
		ports[port.Port] += p.recs.n
	}
	var out []ImbalanceFinding
	for sw, ports := range perSwitch {
		total, max := 0, 0
		for _, n := range ports {
			total += n
			if n > max {
				max = n
			}
		}
		nPorts := len(ports)
		if pc, ok := portCount[sw]; ok && pc > nPorts {
			nPorts = pc
		}
		if total < minRecords || nPorts < 2 {
			continue
		}
		mean := float64(total) / float64(nPorts)
		score := float64(max) / mean
		if score >= minScore {
			out = append(out, ImbalanceFinding{Switch: sw, PortPackets: ports, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Switch < out[j].Switch
	})
	return out
}

// ECMPSelect reproduces the fabric's ECMP choice for a flow so tests and
// operators can predict (and the analyzer can explain) which equal-cost
// port a flow polarizes onto.
func ECMPSelect(f interface{ Hash(uint64) uint64 }, candidates int) int {
	if candidates <= 1 {
		return 0
	}
	return int(f.Hash(netsim.ECMPSeed) % uint64(candidates))
}
