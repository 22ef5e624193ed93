// Package umon is the public facade of the µMon reproduction — a
// microsecond-level network monitoring system built around WaveSketch, the
// in-dataplane wavelet-compressed flow-rate sketch of "µMon: Empowering
// Microsecond-level Network Monitoring with Wavelets" (SIGCOMM 2024).
//
// The facade re-exports the pieces a downstream user composes:
//
//   - WaveSketch and its Config — measure per-flow rate curves at 8.192 µs
//     windows under a fixed memory budget; SealReport reads them back from
//     the sealed sketch's report, as the analyzer does.
//   - System — a deployable µMon instance: one sealed report per period
//     from every host, CE match-sample-mirror at the switches, and the
//     System's Collector consuming both (congestion event detection,
//     flow-rate queries, event replay).
//   - The discrete-event data-center simulator used by the examples and
//     the paper-reproduction benchmarks.
//
// See examples/quickstart for the five-minute tour and DESIGN.md for the
// complete system inventory.
package umon

import (
	"umon/internal/analyzer"
	"umon/internal/core"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

// FlowKey is the canonical 5-tuple flow identifier.
type FlowKey = flowkey.Key

// Window conversion: WindowOf maps a nanosecond timestamp to the 8.192 µs
// observation window; WindowNanos is one window's span.
const WindowNanos = measure.WindowNanos

// WindowOf maps a nanosecond timestamp to its absolute window id.
func WindowOf(ns int64) int64 { return measure.WindowOf(ns) }

// --- WaveSketch ---

// SketchConfig parameterizes a WaveSketch (rows, width, wavelet levels,
// retained coefficients).
type SketchConfig = wavesketch.Config

// WaveSketch is the basic-version sketch: a Count-Min array of wavelet
// buckets. It only measures; SealReport answers its flow queries.
type WaveSketch = wavesketch.Basic

// NewWaveSketch builds a basic sketch.
func NewWaveSketch(cfg SketchConfig) (*WaveSketch, error) { return wavesketch.NewBasic(cfg) }

// SealReport ends sk's measurement period and returns its report, indexed
// for flow queries as the analyzer indexes every host's upload:
// QueryRange(flow, from, to) estimates the flow's bytes in each window.
func SealReport(sk *WaveSketch) *report.Queryable {
	sk.Seal()
	q, _ := report.NewQueryable(report.FromBasic(0, 0, sk)) // refuses only a heavy part, which a basic sketch lacks
	return q
}

// DefaultSketch returns the paper's evaluation configuration (D=3, W=256,
// L=8) with the given coefficient budget K.
func DefaultSketch(k int) SketchConfig { return wavesketch.Default(k) }

// --- µMon system ---

// System is a full µMon deployment over a simulated network.
type System = core.System

// SystemConfig parameterizes a deployment.
type SystemConfig = core.SystemConfig

// HostMonitorConfig parameterizes host-side measurement: the sketch and the
// reporting period. Windows are always 8.192 µs (WindowNanos).
type HostMonitorConfig = core.HostMonitorConfig

// Deploy attaches a µMon instance to a simulated network.
func Deploy(n *Network, topo *Topology, cfg SystemConfig) (*System, error) {
	return core.Deploy(n, topo, cfg)
}

// DefaultSystem returns the evaluation deployment (1/64 event sampling).
func DefaultSystem() SystemConfig { return core.DefaultSystem() }

// --- analyzer ---

// RateGbps converts per-window byte counts to Gbps.
func RateGbps(bytesPerWindow float64) float64 { return analyzer.RateGbps(bytesPerWindow) }

// HostReport is the wire format of a host's measurement upload.
type HostReport = report.HostReport

// DecodeReport parses an encoded host report.
var DecodeReport = report.Decode

// ACLRule is the switch sampling rule (match CE + PSN low bits).
type ACLRule = uevent.ACLRule

// --- simulator ---

// Network is the discrete-event data-center simulator.
type Network = netsim.Network

// Topology is a host/switch graph with ECMP routing.
type Topology = netsim.Topology

// SimConfig parameterizes a simulation.
type SimConfig = netsim.Config

// FlowSpec describes one injected flow.
type FlowSpec = netsim.FlowSpec

// CCDCTCP selects, in FlowSpec.CC, the window-based, ACK-clocked DCTCP
// controller (go-back-N reliable) instead of the default, the evaluation's
// rate-based RoCE controller DCQCN.
const CCDCTCP = netsim.CCDCTCP

// Trace is a completed simulation's observables.
type Trace = netsim.Trace

// Packet is a simulated packet.
type Packet = netsim.Packet

// FatTree builds the k-ary fat-tree of the evaluation.
func FatTree(k int) (*Topology, error) { return netsim.FatTree(k) }

// Dumbbell builds a single-bottleneck topology.
func Dumbbell(senders int) (*Topology, error) { return netsim.Dumbbell(senders) }

// NewNetwork builds a simulation over a topology.
func NewNetwork(cfg SimConfig) (*Network, error) { return netsim.New(cfg) }

// DefaultSimConfig returns the paper's simulation parameters (100 Gbps
// links, 2 MiB port buffers); 1 µs hops, DCQCN and RED KMin/KMax/PMax are
// the simulator's constants.
func DefaultSimConfig(topo *Topology) SimConfig { return netsim.DefaultConfig(topo) }
