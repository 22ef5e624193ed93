package experiments

import (
	"fmt"
	"sort"

	"umon/internal/workload"
)

// Fig03CounterIncrease regenerates Figure 3: the amplification of counter
// volume when refining the window from 10 ms to 10 µs, per workload and
// link load, using flow active times measured in full simulations (the
// standard loads share their simulations with the other figures; 5% and
// 45% are built for this figure alone).
func Fig03CounterIncrease(c *Cache) (*Table, error) {
	t := &Table{
		ID: "fig3", Title: "Counter-volume amplification of 10 µs windows vs 10 ms",
		Header: []string{"workload", "load", "increaseFactor", "source"},
	}
	for _, wl := range []string{"WebSearch", "FacebookHadoop"} {
		for _, load := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
			sim, err := c.Sim(SimKey{wl, load})
			if err != nil {
				return nil, err
			}
			var durations []int64
			for i := range sim.Trace.Flows {
				if d := sim.Trace.Flows[i].DurationNs(); d > 0 {
					durations = append(durations, d)
				}
			}
			factor := workload.CounterIncreaseFactorFromDurations(durations, 10_000, 10_000_000)
			t.AddRow(wl, fmt.Sprintf("%d%%", int(load*100)), fmtF(factor), "simulated")
		}
	}
	t.AddNote("paper: 387x for WebSearch and 34.4x for Hadoop above 35%% load; WebSearch ≫ Hadoop and both grow with load")
	return t, nil
}

// Table2Workloads regenerates Table 2: packets and flows per simulation
// workload.
func Table2Workloads(c *Cache) (*Table, error) {
	t := &Table{
		ID: "table2", Title: "Simulation workloads",
		Header: []string{"workload", "load", "packets", "flows", "completed", "meanFlow(KB)"},
	}
	for _, wl := range []string{"WebSearch", "FacebookHadoop"} {
		for _, load := range []float64{0.15, 0.25, 0.35} {
			sim, err := c.Sim(SimKey{wl, load})
			if err != nil {
				return nil, err
			}
			var done int
			var bytes int64
			for i := range sim.Trace.Flows {
				f := &sim.Trace.Flows[i]
				bytes += f.Bytes
				if f.RxBytes >= f.Bytes {
					done++
				}
			}
			t.AddRow(wl, fmt.Sprintf("%d%%", int(load*100)),
				fmt.Sprintf("%d", sim.Trace.TotalPackets()),
				fmt.Sprintf("%d", len(sim.Trace.Flows)),
				fmt.Sprintf("%d", done),
				fmtF(float64(bytes)/float64(len(sim.Trace.Flows))/1024))
		}
	}
	t.AddNote("paper Table 2: WebSearch 367/625/815 flows, Hadoop 4966/8366/11773 flows; 0.94-2.1M packets")
	return t, nil
}

// Fig16WorkloadInfo regenerates Figure 16: flow-size CDFs, flow
// inter-arrival CDFs and queue-length CDFs of the workloads.
func Fig16WorkloadInfo(c *Cache) (*Table, error) {
	t := &Table{
		ID: "fig16", Title: "Workload information",
		Header: []string{"series", "x", "CDF"},
	}
	// (a) Flow size distribution (analytic CDF of the generators).
	for _, wl := range []string{"WebSearch", "FacebookHadoop"} {
		dist, err := distFor(wl)
		if err != nil {
			return nil, err
		}
		for _, kb := range []float64{1, 10, 100, 1000, 10_000, 30_000} {
			t.AddRow(wl+" size", fmt.Sprintf("%.0fKB", kb), fmtF(dist.CDFAt(kb*1024)))
		}
	}
	// (b) Flow inter-arrival time at a ToR port and (c) queue-length CDF,
	// from the cached simulations.
	for _, key := range []SimKey{
		{"FacebookHadoop", 0.15}, {"FacebookHadoop", 0.35},
		{"WebSearch", 0.15}, {"WebSearch", 0.35},
	} {
		sim, err := c.Sim(key)
		if err != nil {
			return nil, err
		}
		inter := interArrivals(sim.Flows)
		for _, us := range []float64{20, 100, 500, 2000} {
			t.AddRow(key.String()+" interarrival", fmt.Sprintf("%.0fus", us), fmtF(cdfAt(inter, us*1000)))
		}
		var qs []float64
		for _, samples := range sim.Trace.QueueSamples {
			for _, s := range samples {
				qs = append(qs, float64(s.Bytes))
			}
		}
		sort.Float64s(qs)
		for _, kb := range []float64{0, 20, 200, 500, 1500} {
			t.AddRow(key.String()+" queue", fmt.Sprintf("%.0fKB", kb), fmtF(cdfAt(qs, kb*1024)))
		}
	}
	t.AddNote("paper Fig 16: Hadoop arrivals are denser (20%% under 20 µs); 35%%-load Hadoop queues exceed 200 KB several percent of the time")
	return t, nil
}

// interArrivals returns sorted flow inter-arrival gaps (ns) at the
// granularity of source ToR ports (groups of k/2=2 hosts share an edge).
func interArrivals(flows []workload.Flow) []float64 {
	perPort := make(map[int][]int64)
	for _, f := range flows {
		port := f.Src / 2
		perPort[port] = append(perPort[port], f.StartNs)
	}
	var gaps []float64
	for _, ts := range perPort {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, float64(ts[i]-ts[i-1]))
		}
	}
	sort.Float64s(gaps)
	return gaps
}

// cdfAt evaluates an empirical CDF (sorted samples) at x.
func cdfAt(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, x)
	return float64(i) / float64(len(sorted))
}
