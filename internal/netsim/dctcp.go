package netsim

// DCTCP-style window congestion control (Alizadeh et al., SIGCOMM'10).
// The paper's µEvent design (§5) covers both DCQCN/RoCE and DCTCP fabrics —
// both sense congestion through CE marks — and Figure 9a's "TCP flow" use
// case needs a window-based, ACK-clocked sender. This implements the
// canonical DCTCP loop: receivers echo each segment's CE bit on the
// cumulative ACK; senders keep an EWMA α of the marked fraction per window
// epoch and cut cwnd by α/2; growth is standard slow start + congestion
// avoidance; loss (go-back-N NAK or a stall timeout) halves the window.

// The parameters of every window-based flow, whose segment payload (MSS)
// is PayloadBytes.
const (
	dctcpInitCwndSegments = 10       // the initial window
	dctcpG                = 1.0 / 16 // the α EWMA gain (paper: 1/16)
	dctcpRTONs            = 500_000  // the stall-recovery timeout: 500 µs
)

// --- engine integration: zero-closure self-rearming RTO chain ---

// armRTOTimer arms the window flow's stall-recovery timeout as a typed
// event carrying the host and flow directly — no closure, no per-arm
// allocation. Arming is idempotent (flowState.rtoArmed); a tick that finds
// the flow finished disarms the chain instead of rescheduling.
func (h *host) armRTOTimer(fs *flowState) {
	if fs.rtoArmed {
		return
	}
	fs.rtoArmed = true
	e := h.sh.eng
	e.push(event{at: e.now + dctcpRTONs, kind: evRTO, flow: fs})
}

// rtoTick runs one evRTO event: on a stall past the timeout, presume tail
// loss (everything after ackedPSN), rewind and shrink the window; always
// rearm while the flow is unfinished.
func (h *host) rtoTick(fs *flowState) {
	if fs.finished {
		fs.rtoArmed = false
		return
	}
	now := h.sh.eng.Now()
	if fs.psn > fs.ackedPSN && now-fs.lastProgressNs >= dctcpRTONs {
		h.rewind(fs, fs.ackedPSN)
		fs.win.onLoss()
		fs.lastProgressNs = now
		h.trySendWindow(fs)
	}
	h.sh.eng.push(event{at: now + dctcpRTONs, kind: evRTO, flow: fs})
}

// dctcpState is the per-flow window controller.
type dctcpState struct {
	cwnd     float64 // bytes
	ssthresh float64
	alpha    float64
	// Epoch accounting: one α update and at most one cut per window.
	ackCnt   int
	ecnCnt   int
	epochEnd uint32 // PSN that closes the current epoch
	cutDone  bool
}

func newDCTCPState() *dctcpState {
	return &dctcpState{
		cwnd:     dctcpInitCwndSegments * PayloadBytes,
		ssthresh: 1e18, // slow start until the first congestion signal
	}
}

// onAck processes one cumulative ACK: ece echoes the newest segment's CE
// bit; nextPSN is the sender's next PSN to send (the epoch boundary).
func (d *dctcpState) onAck(ece bool, nextPSN uint32) {
	d.ackCnt++
	if ece {
		d.ecnCnt++
		// DCTCP cuts once per epoch, proportionally to α, on the first
		// mark it sees in the epoch.
		if !d.cutDone {
			d.cutDone = true
			d.cwnd *= 1 - d.alpha/2
			d.ssthresh = d.cwnd
			d.clampCwnd()
		}
	}
	// Window growth.
	const mss = PayloadBytes
	if d.cwnd < d.ssthresh {
		d.cwnd += mss // slow start: +1 MSS per ACK
	} else {
		d.cwnd += mss * mss / d.cwnd // congestion avoidance
	}
}

// onEpochEnd folds the epoch's mark fraction into α.
func (d *dctcpState) onEpochEnd() {
	if d.ackCnt > 0 {
		f := float64(d.ecnCnt) / float64(d.ackCnt)
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
	}
	d.ackCnt, d.ecnCnt = 0, 0
	d.cutDone = false
}

// onLoss reacts to a go-back-N NAK or a stall timeout.
func (d *dctcpState) onLoss() {
	d.ssthresh = d.cwnd / 2
	d.cwnd = d.ssthresh
	d.clampCwnd()
}

func (d *dctcpState) clampCwnd() {
	if d.cwnd < PayloadBytes {
		d.cwnd = PayloadBytes
	}
}
