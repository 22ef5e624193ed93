// Transport debugging: the paper's Figure 9 use case. Microsecond-level
// rate curves distinguish (a) a flow throttled by its own host — gaps in
// the curve — from (b) a flow reacting to network congestion — dips and
// DCQCN recovery. At 10 ms granularity both just look "slow".
//
//	go run ./examples/transport-debug
package main

import (
	"fmt"

	"umon"
)

func main() {
	fmt.Println("(a) host-limited flow: the application starves the NIC")
	gappy()
	fmt.Println()
	fmt.Println("(b) network-limited flow: DCQCN reacting to an on-off contender")
	contended()
}

// sketchFlow measures flow id at host 0 of the network with a WaveSketch
// and prints a decimated reconstruction with a gap/dip annotation.
func sketchFlow(n *umon.Network, id int32, horizonNs int64) {
	sk, err := umon.NewWaveSketch(umon.DefaultSketch(128))
	if err != nil {
		panic(err)
	}
	var key umon.FlowKey
	n.OnHostEgress = func(host int, pkt *umon.Packet, now int64) {
		if host == 0 && pkt.FlowID == id {
			key = pkt.Flow
			sk.Update(pkt.Flow, umon.WindowOf(now), int64(pkt.Size))
		}
	}
	n.Run(horizonNs)

	from, to := int64(0), umon.WindowOf(horizonNs)
	est := umon.SealReport(sk).QueryRange(key, from, to)

	var total, idle int
	for _, v := range est {
		total++
		if v < 100 {
			idle++
		}
	}
	step := len(est) / 36
	if step < 1 {
		step = 1
	}
	fmt.Println("  window   rate(Gbps)")
	for w := 0; w < len(est); w += step {
		bar := int(umon.RateGbps(est[w]))
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  %6d   %6.2f  %s\n", w, umon.RateGbps(est[w]), repeat('#', bar/2))
	}
	avg := 0.0
	for _, v := range est {
		avg += v
	}
	avg /= float64(len(est))
	fmt.Printf("  → average %.1f Gbps; %d/%d windows idle\n", umon.RateGbps(avg), idle, total)
}

func repeat(c byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func gappy() {
	topo, _ := umon.Dumbbell(1)
	n, err := umon.NewNetwork(umon.DefaultSimConfig(topo))
	if err != nil {
		panic(err)
	}
	// A DCTCP (TCP-like, ACK-clocked) sender whose application only has
	// data 40% of the time (on 120 µs, off 180 µs): the classic
	// "insufficient application data" signature of Figure 9a.
	id, err := n.AddFlow(umon.FlowSpec{
		Src: 0, Dst: 1, Bytes: 1 << 33,
		CC: umon.CCDCTCP, OnNs: 120_000, OffNs: 180_000,
	})
	if err != nil {
		panic(err)
	}
	sketchFlow(n, id, 3_000_000)
	fmt.Println("  diagnosis: regular idle gaps → the host cannot supply data;")
	fmt.Println("  the network is innocent (no ECN marks on this path).")
}

func contended() {
	topo, _ := umon.Dumbbell(2)
	n, err := umon.NewNetwork(umon.DefaultSimConfig(topo))
	if err != nil {
		panic(err)
	}
	id, err := n.AddFlow(umon.FlowSpec{Src: 0, Dst: 2, Bytes: 1 << 33})
	if err != nil {
		panic(err)
	}
	// The disturbance: 40 Gbps on-off background traffic.
	if _, err := n.AddFlow(umon.FlowSpec{
		Src: 1, Dst: 2, Bytes: 1 << 33, StartNs: 200_000,
		FixedRateBps: 40e9, OnNs: 300_000, OffNs: 500_000,
	}); err != nil {
		panic(err)
	}
	sketchFlow(n, id, 3_000_000)
	fmt.Println("  diagnosis: periodic dips aligned with the contender's on-phases,")
	fmt.Println("  followed by DCQCN fast recovery — congestion control is working;")
	fmt.Println("  convergence and fairness can be read straight off the curve.")
}
