package uevent

import (
	"sort"

	"umon/internal/netsim"
)

// LossForensics grades §5's packet-loss story: "CE packets are generated
// prior to the tail drop", so a drop should be *attributable* — preceded on
// the same port by at least one captured (sampled) CE mirror within the
// lookback window.
type LossForensics struct {
	Drops      int
	Attributed int
}

// Ratio is the attributed fraction (1 when there are no drops).
func (l LossForensics) Ratio() float64 {
	if l.Drops == 0 {
		return 1
	}
	return float64(l.Attributed) / float64(l.Drops)
}

// AttributeDrops checks each dropped packet against the mirror stream.
func AttributeDrops(drops []netsim.DropRecord, mirrors []MirrorRecord, lookbackNs int64) LossForensics {
	if lookbackNs <= 0 {
		lookbackNs = 200_000
	}
	perPort := make(map[netsim.PortID][]int64)
	for _, m := range mirrors {
		perPort[m.Port] = append(perPort[m.Port], m.TimestampNs)
	}
	for _, ts := range perPort {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	var out LossForensics
	for _, d := range drops {
		out.Drops++
		ts := perPort[netsim.PortID{Switch: d.Switch, Port: d.Port}]
		// Any mirror in [d.Ns - lookback, d.Ns]?
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= d.Ns-lookbackNs })
		if i < len(ts) && ts[i] <= d.Ns {
			out.Attributed++
		}
	}
	return out
}
