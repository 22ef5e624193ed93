// Congestion replay: deploy a full µMon instance over a simulated
// bottleneck, let two tenants collide, then replay the congestion event —
// rate curves of the flows involved, before/during/after — exactly the
// Figure 10c workflow.
//
//	go run ./examples/congestion-replay
package main

import (
	"fmt"
	"strings"

	"umon"
)

func main() {
	// A dumbbell: three senders share one bottleneck toward a receiver.
	topo, err := umon.Dumbbell(3)
	if err != nil {
		panic(err)
	}
	n, err := umon.NewNetwork(umon.DefaultSimConfig(topo))
	if err != nil {
		panic(err)
	}

	// Deploy µMon: WaveSketch at every host, CE match-and-mirror at every
	// switch (sampling 1/4 for this small scenario), one collector.
	cfg := umon.DefaultSystem()
	cfg.Host.PeriodNs = 10_000_000
	cfg.Switch.Rule = umon.ACLRule{SampleBits: 2}
	sys, err := umon.Deploy(n, topo, cfg)
	if err != nil {
		panic(err)
	}

	// An established flow, then a bursty newcomer 500 µs later, then a
	// third burst — the contention pattern of the paper's replay example.
	n.AddFlow(umon.FlowSpec{Src: 0, Dst: 3, Bytes: 60_000_000, StartNs: 0})
	n.AddFlow(umon.FlowSpec{Src: 1, Dst: 3, Bytes: 30_000_000, StartNs: 500_000})
	n.AddFlow(umon.FlowSpec{Src: 2, Dst: 3, Bytes: 10_000_000, StartNs: 1_200_000})
	n.Run(8_000_000)
	if err := sys.Finish(); err != nil {
		panic(err)
	}

	events := sys.Collector.Events()
	fmt.Printf("detected %d congestion events from %d mirrored packets\n\n",
		len(events), sys.Collector.Status().MirrorsIngested)
	if len(events) == 0 {
		fmt.Println("no congestion events — try higher load")
		return
	}

	// Pick the longest event and replay it.
	best := events[0]
	for _, ev := range events {
		if ev.DurationNs() > best.DurationNs() {
			best = ev
		}
	}
	fmt.Printf("replaying %s\n\n", best.String())

	view := sys.Collector.Replay(best, 400_000) // ±400 µs of context
	flows := best.Flows
	if len(flows) > 3 {
		flows = flows[:3]
	}

	head := fmt.Sprintf("%-10s", "window")
	for i := range flows {
		head += fmt.Sprintf("  %-10s", fmt.Sprintf("flow%d Gbps", i))
	}
	fmt.Println(head + "  phase")
	step := view.Windows / 30
	if step < 1 {
		step = 1
	}
	for w := 0; w < view.Windows; w += step {
		line := fmt.Sprintf("%-10d", view.WindowStart+int64(w))
		for _, fk := range flows {
			line += fmt.Sprintf("  %-10.2f", umon.RateGbps(view.Curves[fk][w]))
		}
		absNs := (view.WindowStart + int64(w)) * umon.WindowNanos
		phase := ""
		if absNs >= best.StartNs && absNs <= best.EndNs {
			phase = "<== event"
		}
		fmt.Println(strings.TrimRight(line+"  "+phase, " "))
	}

	fmt.Println("\nreading: the established flow's rate collapses when the bursty")
	fmt.Println("newcomer arrives, then both converge to a fair share — the cause")
	fmt.Println("and the impact of the event, recovered entirely from monitoring data.")
}
