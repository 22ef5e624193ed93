// Quickstart: measure one flow's microsecond-level rate curve with
// WaveSketch, then reconstruct it from the compressed coefficients of the
// sketch's report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"math/rand"

	"umon"
)

func main() {
	// A WaveSketch with the paper's evaluation shape (3 rows × 256
	// buckets, 8 wavelet levels) keeping K=64 detail coefficients per
	// bucket.
	sk, err := umon.NewWaveSketch(umon.DefaultSketch(64))
	if err != nil {
		panic(err)
	}

	flow := umon.FlowKey{
		SrcIP: 0x0a000101, DstIP: 0x0a000201,
		SrcPort: 10007, DstPort: 4791, Proto: 17,
	}

	// Synthesize 2000 windows (≈16 ms at 8.192 µs/window) of a flow that
	// cruises at 8 Gbps, bursts to 40, and backs off to 2 — the kind of
	// dynamics DCQCN produces under contention.
	rng := rand.New(rand.NewSource(7))
	const windows = 2000
	truth := make([]float64, windows)
	for w := 0; w < windows; w++ {
		gbps := 8.0
		switch {
		case w >= 400 && w < 480:
			gbps = 40 // microburst
		case w >= 480 && w < 900:
			gbps = 2 // post-congestion backoff
		case w >= 900:
			gbps = 8 + 4*math.Sin(float64(w)/40) // oscillation
		}
		bytes := int64(gbps / 8 * 8192) // Gbps → bytes per 8.192 µs window
		bytes += int64(rng.Intn(200))
		truth[w] = float64(bytes)
		sk.Update(flow, int64(w), bytes)
	}

	// Sealing ends the measurement period; the report's queries
	// reconstruct the curve from the retained wavelet coefficients.
	est := umon.SealReport(sk).QueryRange(flow, 0, windows)

	fmt.Println("window   truth(Gbps)  wavesketch(Gbps)")
	for w := 0; w < windows; w += 100 {
		fmt.Printf("%6d   %10.2f   %10.2f\n",
			w, umon.RateGbps(truth[w]), umon.RateGbps(est[w]))
	}

	var se, ref float64
	for w := range truth {
		d := est[w] - truth[w]
		se += d * d
		ref += truth[w] * truth[w]
	}
	fmt.Printf("\nrelative L2 error: %.2f%%\n", 100*math.Sqrt(se/ref))
	fmt.Printf("report size:       %d bytes for %d raw counters (%d bytes): %.1fx compression\n",
		sk.ReportBytes(), windows, windows*4, float64(windows*4)/float64(sk.ReportBytes()))
}
