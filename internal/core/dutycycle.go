package core

import "umon/internal/flowkey"

// DutyCycledMonitor implements the §9 cost/quality knob (after Yaseen et
// al., HotNets'21): "in case continuous monitoring is non-compulsory, µMon
// can use the sampling method to activate microsecond-level monitoring
// with a specific frequency". The monitor measures ActivePeriods out of
// every CyclePeriods reporting periods and stays dark otherwise, cutting
// report bandwidth proportionally while keeping full microsecond fidelity
// inside the active epochs.
type DutyCycledMonitor struct {
	inner         *StreamHostMonitor
	periodNs      int64
	activePeriods int64
	cyclePeriods  int64
	skipped       int64
	seen          int64
}

// NewDutyCycledMonitor wraps a host monitor. active must be in
// [1, cycle]; active == cycle is continuous monitoring.
func NewDutyCycledMonitor(inner *StreamHostMonitor, active, cycle int64) *DutyCycledMonitor {
	if cycle < 1 {
		cycle = 1
	}
	if active < 1 {
		active = 1
	}
	if active > cycle {
		active = cycle
	}
	return &DutyCycledMonitor{
		inner:         inner,
		periodNs:      inner.cfg.PeriodNs,
		activePeriods: active,
		cyclePeriods:  cycle,
	}
}

// Active reports whether the given timestamp falls in a measured epoch.
func (d *DutyCycledMonitor) Active(ns int64) bool {
	return (ns/d.periodNs)%d.cyclePeriods < d.activePeriods
}

// OnPacket forwards packets of active epochs to the inner monitor.
func (d *DutyCycledMonitor) OnPacket(f flowkey.Key, ns int64, size int) error {
	d.seen++
	if !d.Active(ns) {
		d.skipped++
		return nil
	}
	return d.inner.OnPacket(f, ns, size)
}

// Close seals the inner monitor's final period.
func (d *DutyCycledMonitor) Close() error { return d.inner.Close() }

// Coverage reports the fraction of observed packets that were measured.
func (d *DutyCycledMonitor) Coverage() float64 {
	if d.seen == 0 {
		return 1
	}
	return float64(d.seen-d.skipped) / float64(d.seen)
}
