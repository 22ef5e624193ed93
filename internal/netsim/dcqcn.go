package netsim

// DCQCN's parameters (§7.2: "the parameters of the DCQCN algorithm remain
// consistent with the original paper" [Zhu et al., SIGCOMM'15]). The line
// rate a flow starts at and recovers to is Config.LinkBps.
const (
	// dcqcnG is the alpha EWMA gain.
	dcqcnG = 1.0 / 256
	// dcqcnAlphaTimerNs decays alpha when no CNP arrives within it.
	dcqcnAlphaTimerNs = 55_000
	// dcqcnRateTimerNs drives rate-increase events.
	dcqcnRateTimerNs = 150_000
	// dcqcnF is the number of fast-recovery stages before additive increase.
	dcqcnF = 5
	// dcqcnRaiBps is the additive increase step, dcqcnRhaiBps the hyper one.
	dcqcnRaiBps  = 200e6
	dcqcnRhaiBps = 1e9
	// dcqcnMinRateBps floors the sending rate.
	dcqcnMinRateBps = 100e6
	// cnpIntervalNs paces receiver CNP generation per flow.
	cnpIntervalNs = 25_000
)

// --- engine integration: zero-closure self-rearming timer chains ---

// armDCQCNTimers starts the flow's alpha-decay and rate-increase timers as
// typed events carrying the flow state directly — no closure, no per-arm
// allocation. Arming is idempotent (flowState.ccArmed); a tick that finds
// the flow finished disarms the chain instead of rescheduling.
func (h *host) armDCQCNTimers(fs *flowState) {
	if fs.ccArmed {
		return
	}
	fs.ccArmed = true
	e := h.sh.eng
	e.push(event{at: e.now + dcqcnAlphaTimerNs, kind: evDCQCNAlpha, flow: fs})
	e.push(event{at: e.now + dcqcnRateTimerNs, kind: evDCQCNRate, flow: fs})
}

// dcqcnAlphaTick runs one evDCQCNAlpha event: decay alpha if the flow has
// been CNP-quiet, then rearm. The dispatching engine (the sender host's
// shard) is passed in so rearming stays on the flow's own wheel.
func (n *Network) dcqcnAlphaTick(e *Engine, fs *flowState) {
	if fs.finished {
		fs.ccArmed = false
		return
	}
	fs.cc.onAlphaTimer(e.now)
	e.push(event{at: e.now + dcqcnAlphaTimerNs, kind: evDCQCNAlpha, flow: fs})
}

// dcqcnRateTick runs one evDCQCNRate event: one rate-increase step, then
// rearm.
func (n *Network) dcqcnRateTick(e *Engine, fs *flowState) {
	if fs.finished {
		return
	}
	fs.cc.onRateTimer(n.cfg.LinkBps)
	e.push(event{at: e.now + dcqcnRateTimerNs, kind: evDCQCNRate, flow: fs})
}

// dcqcnState is the per-flow rate controller.
type dcqcnState struct {
	rc        float64 // current rate (bps)
	rt        float64 // target rate
	alpha     float64
	stage     int   // rate-increase events since the last cut
	lastCNPNs int64 // for alpha-timer gating
	sawCNP    bool
	fixed     bool // scripted constant-rate flow: CC disabled
}

// newDCQCNState starts a flow at the line rate (§2.1: traffic "rapidly
// initiated ... with a high initial rate").
func newDCQCNState(lineBps float64) dcqcnState {
	return dcqcnState{rc: lineBps, rt: lineBps, alpha: 1}
}

// onCNP applies the DCQCN rate decrease.
func (d *dcqcnState) onCNP(now int64) {
	d.rt = d.rc
	d.rc *= 1 - d.alpha/2
	if d.rc < dcqcnMinRateBps {
		d.rc = dcqcnMinRateBps
	}
	d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
	d.stage = 0
	d.lastCNPNs = now
	d.sawCNP = true
}

// onAlphaTimer decays alpha when the flow has been CNP-free for a full
// timer period.
func (d *dcqcnState) onAlphaTimer(now int64) {
	if d.sawCNP && now-d.lastCNPNs < dcqcnAlphaTimerNs {
		return
	}
	d.alpha *= 1 - dcqcnG
}

// onRateTimer performs one rate-increase event: F fast-recovery halvings
// toward the target, then additive increase, then hyper increase, capped
// at the line rate.
func (d *dcqcnState) onRateTimer(lineBps float64) {
	d.stage++
	switch {
	case d.stage <= dcqcnF: // fast recovery
		// rt unchanged
	case d.stage <= 2*dcqcnF: // additive increase
		d.rt += dcqcnRaiBps
	default: // hyper increase
		d.rt += dcqcnRhaiBps
	}
	if d.rt > lineBps {
		d.rt = lineBps
	}
	d.rc = (d.rc + d.rt) / 2
	if d.rc > lineBps {
		d.rc = lineBps
	}
}
