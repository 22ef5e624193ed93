package main

import "fmt"

// Every workload runs the same program on a different input mix: a seeded
// fabric simulation, a closed-loop replay of its trace through host
// monitors, the framed report stream, switch monitors and the collector
// (the stream loop), and closed-loop admits and a read-beside-write reader
// on a collector window (the served window). The measured seconds are cut
// into rounds that give each stage its share: the simulator and the stream
// loop in the stream rounds, admits and reads in the fleet rounds after
// them. A workload chooses the traffic, the mirror sampling rate, the
// window that is served and the shares, so that every stage is stressed on
// one workload and nearly idle on the other, and every metric still has a
// value on both.
type workloadSpec struct {
	Name string
	Why  string

	// Traffic of the simulation; the fabric is a fat tree of arity fatTreeK.
	Dist      string // "hadoop" or "websearch"
	Load      float64
	TrafficNs int64
	DrainNs   int64
	// SampleBits is the switches' mirror sampling rule: 1 in 2^SampleBits
	// CE packets is mirrored.
	SampleBits uint

	// How the measured seconds, and each round of them, are shared
	// between the stages.
	SimShare      float64 // serial simulations
	PipelineShare float64 // timed laps of the stream loop
	FillShare     float64 // closed-loop admits into the served window
	ServeShare    float64 // reader beside the paced writer

	// Fleet, when set, makes the fleet rounds serve a synthetic fleet-scale
	// window; otherwise they serve the final window of the stream loop.
	Fleet *fleetSpec
	// TurnoverS is the period over which the paced writer re-admits one
	// whole window while the reader is served.
	TurnoverS float64
}

// fleetSpec sizes the synthetic window of query-fleet: Hosts hosts, each
// with one report per epoch of FlowsPerReport distinct flows. Content
// repeats every ContentEpochs epochs (a flow lives ContentEpochs epochs of
// the 16-epoch window), which keeps set-up affordable.
type fleetSpec struct {
	Hosts          int
	ContentEpochs  int
	FlowsPerReport int
	HotFlows       int
	// DecodeBudget bounds the decoded curves each resident report keeps.
	// Unbounded, the 2,000-report window's heap grows for as long as it is
	// served and the paced writer stalls behind the collector; with the
	// value of umon-collect's usage line the heap and the hit rate reach a
	// steady state within the first rounds.
	DecodeBudget int
}

const (
	fatTreeK = 4 // every workload's fabric: 16 hosts
	// epochNs is the host sealing period: 2^21 ns (2.097 ms), so that an
	// epoch is a whole number of 8.192 µs sketch windows and every lap of
	// the replay sees the same window alignment.
	epochNs      = int64(1) << 21
	gapNs        = 50_000 // event clustering gap
	replayMargin = 30_000 // ns around an event when replaying it
	windowEpochs = 16     // resident epochs of the collector window
	queryWindows = 32     // windows per QueryFlow of the reader
	setupReps    = 3      // set-ups per run
	runSeconds   = 44     // the --seconds of BENCHMARK.json and the default
	roundS       = 4.0    // length of a round: --seconds makes seconds/roundS of them
	minRounds    = 3
	spotCheck    = 1000 // the first reader answer and every spotCheck-th after it is checked
	minFlowBytes = 100_000
)

var workloads = []workloadSpec{
	{
		Name: "stream-mice",
		Why:  "Hadoop mice, 1/64 mirror sampling, serving its own 16-host window: sketch update, seal+encode, report decode and admit dominate; mirror path and fleet-scale admit and query are idle",
		Dist: "hadoop", Load: 0.25, TrafficNs: 10_000_000, DrainNs: 2_000_000, SampleBits: 6,
		SimShare: 0.15, PipelineShare: 0.5, FillShare: 0.1, ServeShare: 0.25, TurnoverS: 1,
	},
	{
		Name: "fleet-elephants",
		Why:  "WebSearch elephants, every CE packet mirrored, serving a 125-host synthetic window beside a paced writer: switch encode, mirror ingest, detect, replay, admit COW, routing and cold decode dominate",
		Dist: "websearch", Load: 0.35, TrafficNs: 10_000_000, DrainNs: 2_000_000, SampleBits: 0,
		SimShare: 0.15, PipelineShare: 0.35, FillShare: 0.2, ServeShare: 0.3, TurnoverS: 20,
		Fleet: &fleetSpec{Hosts: 125, ContentEpochs: 4, FlowsPerReport: 128, HotFlows: 512, DecodeBudget: 64},
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
