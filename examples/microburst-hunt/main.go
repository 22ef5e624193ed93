// Microburst hunting: tune the µEvent sampling knob. An incast storm in a
// fat-tree creates transient queue buildups; this example sweeps the ACL
// sampling ratio and shows the recall-vs-bandwidth trade-off an operator
// navigates (Figures 14/15 in miniature).
//
//	go run ./examples/microburst-hunt
package main

import (
	"fmt"

	"umon"
	"umon/internal/netsim"
	"umon/internal/uevent"
)

func main() {
	// 16-host fat-tree; 8 senders incast into one victim host in waves.
	topo, err := umon.FatTree(4)
	if err != nil {
		panic(err)
	}
	n, err := umon.NewNetwork(umon.DefaultSimConfig(topo))
	if err != nil {
		panic(err)
	}
	const victim = 0
	id := 0
	for wave := 0; wave < 5; wave++ {
		for s := 8; s < 16; s++ {
			_, err := n.AddFlow(umon.FlowSpec{
				Src: s, Dst: victim,
				Bytes:   400_000, // 400 KB bursts
				StartNs: int64(wave)*800_000 + int64(s%4)*10_000,
			})
			if err != nil {
				panic(err)
			}
			id++
		}
	}
	n.Record()
	tr := n.Run(6_000_000)

	fmt.Printf("ground truth: %d congestion episodes, %d CE packet observations\n\n",
		len(tr.Episodes), len(tr.CELog))
	if len(tr.Episodes) == 0 {
		fmt.Println("no congestion — increase the incast fan-in")
		return
	}

	fmt.Println("sampling   recall(all)  recall(>KMax)  maxSwitchMbps  mirrors")
	for _, bits := range []uint{0, 2, 4, 6, 8} {
		rule := uevent.ACLRule{SampleBits: bits}
		mirrors := uevent.Capture(tr.CELog, rule, 0)
		bins := uevent.Grade(tr.Episodes, mirrors, 25<<10, 250<<10, 10_000)
		bw := uevent.Bandwidth(mirrors, tr.DurationNs)
		fmt.Printf("%-9s  %-11.3f  %-13.3f  %-13.1f  %d\n",
			rule.String(),
			uevent.RecallAbove(bins, 0),
			uevent.RecallAbove(bins, 200<<10),
			bw.MaxBps/1e6,
			len(mirrors))
	}

	fmt.Println("\nreading: severe events (queue > KMax) stay near-perfectly visible")
	fmt.Println("down to sparse sampling, while mirror bandwidth falls geometrically —")
	fmt.Println("the paper's 1/64 operating point keeps 99% recall at tens of Mbps.")

	// Where do the bursts live? The port with the most episodes (ties go to
	// the lower switch, then port) should be the link into the victim.
	counts := map[netsim.PortID]int{}
	for _, ep := range tr.Episodes {
		counts[ep.Port]++
	}
	var hot netsim.PortID
	best := 0
	for p, c := range counts {
		if c > best || c == best && (p.Switch < hot.Switch || p.Switch == hot.Switch && p.Port < hot.Port) {
			hot, best = p, c
		}
	}
	where := "not the victim's ToR downlink"
	if topo.Ports[topo.Hosts+int(hot.Switch)][hot.Port].Peer == victim {
		where = "the victim's ToR downlink"
	}
	fmt.Printf("\nhottest link: switch %d port %d (%d episodes) — %s\n",
		hot.Switch, hot.Port, best, where)
}
