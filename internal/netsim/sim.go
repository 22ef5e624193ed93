package netsim

import (
	"fmt"

	"umon/internal/workload"
)

// RunWorkload builds a fat-tree network, injects the generated workload
// flows and runs to the horizon, recording the trace's packet logs — the
// paper's simulation setup in one call.
func RunWorkload(cfg Config, flows []workload.Flow, horizonNs int64) (*Trace, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n.Record()
	for _, f := range flows {
		if _, err := n.AddFlow(FlowSpec{
			Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, StartNs: f.StartNs,
		}); err != nil {
			return nil, fmt.Errorf("flow %d: %w", f.ID, err)
		}
	}
	return n.Run(horizonNs), nil
}
