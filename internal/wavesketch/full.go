package wavesketch

import (
	"fmt"

	"umon/internal/flowkey"
)

// FullConfig parameterizes the full version of WaveSketch (§4.2): a heavy
// part — a hash table electing heavy flows by majority vote, each with its
// own wavelet bucket — in front of a basic-version light part that counts
// every packet.
type FullConfig struct {
	HeavyRows int // h: heavy-part hash table size (paper Table 1: 256)
	HeavySeed uint64
	Light     Config // light part; paper Table 1 uses D=1, W=256
}

// DefaultFull mirrors the Table 1 configuration: h=256 heavy slots, light
// part with a single row of 256 buckets, L=8, K=64 on both parts.
func DefaultFull() FullConfig {
	light := Default(64)
	light.Rows = 1
	return FullConfig{HeavyRows: 256, HeavySeed: 0x48455659, Light: light}
}

type heavySlot struct {
	key    flowkey.Key
	vote   int64
	valid  bool
	bucket Bucket // slab-resident: the heavy part is one contiguous array
}

// Full is the full-version WaveSketch. It implements
// measure.SeriesEstimator.
type Full struct {
	cfg    FullConfig
	heavy  []heavySlot
	slots  flowkey.Reducer // onto heavy
	light  *Basic
	sealed bool
}

// NewFull builds a full WaveSketch.
func NewFull(cfg FullConfig) (*Full, error) {
	if cfg.HeavyRows < 1 {
		return nil, fmt.Errorf("wavesketch: need HeavyRows ≥ 1, got %d", cfg.HeavyRows)
	}
	light, err := NewBasic(cfg.Light)
	if err != nil {
		return nil, err
	}
	f := &Full{cfg: cfg, light: light, slots: flowkey.NewReducer(cfg.HeavyRows)}
	f.heavy = make([]heavySlot, cfg.HeavyRows)
	for i := range f.heavy {
		f.heavy[i].bucket.Init(cfg.Light.Levels, cfg.Light.newSink())
	}
	return f, nil
}

// Name implements measure.SeriesEstimator.
func (f *Full) Name() string { return f.cfg.Light.Variant.String() + "-Full" }

// Update implements measure.SeriesEstimator. Per §4.2, the light part is
// updated for *every* packet (so evicting a heavy candidate loses nothing),
// while the heavy slot tracks the current majority-vote candidate. The key
// is packed once and hashed D+1 times: per light row and for the slot.
func (f *Full) Update(k flowkey.Key, w int64, v int64) {
	p := k.Pack()
	f.light.updatePacked(p, w, v)
	f.updateHeavy(k, f.slots.Index(p.Hash(f.cfg.HeavySeed)), w, v)
}

// updateHeavy runs the majority-vote election on the slot at idx.
func (f *Full) updateHeavy(k flowkey.Key, idx int, w int64, v int64) {
	slot := &f.heavy[idx]
	switch {
	case !slot.valid:
		slot.valid = true
		slot.key = k
		slot.vote = v
		slot.bucket.Reset()
		slot.bucket.Update(w, v)
	case slot.key == k:
		slot.vote += v
		slot.bucket.Update(w, v)
	default:
		slot.vote -= v
		if slot.vote < 0 {
			// Majority vote flipped: evict the candidate. Its traffic is
			// fully present in the light part, so the heavy bucket is
			// simply discarded (§4.2).
			slot.key = k
			slot.vote = v
			slot.bucket.Reset()
			slot.bucket.Update(w, v)
		}
	}
}

// Seal implements measure.SeriesEstimator.
func (f *Full) Seal() {
	if f.sealed {
		return
	}
	f.sealed = true
	f.light.Seal()
	for i := range f.heavy {
		if f.heavy[i].valid {
			f.heavy[i].bucket.Seal()
		}
	}
}

// heavyFor returns the heavy slot currently owned by k, if any.
func (f *Full) heavyFor(k flowkey.Key) *heavySlot {
	slot := &f.heavy[f.slots.Index(k.Hash(f.cfg.HeavySeed))]
	if slot.valid && slot.key == k {
		return slot
	}
	return nil
}

// QueryRange implements measure.SeriesEstimator. Heavy flows are answered
// from their dedicated bucket; windows before the heavy bucket's first
// window (a candidate elected mid-flow) fall back to the light part, which
// counts every packet. Mice flows are answered from the light part after
// subtracting the reconstructed curves of heavy flows that share each
// light bucket (§4.2: "subtract the value of the heavy part flows when
// reconstructing the light part").
func (f *Full) QueryRange(k flowkey.Key, from, to int64) []float64 {
	if slot := f.heavyFor(k); slot != nil {
		if to < from {
			to = from
		}
		est := slot.bucket.Reconstruct(from, to)
		if w0 := slot.bucket.W0(); w0 > from {
			// Early windows come from the light estimate of this flow.
			cut := w0
			if cut > to {
				cut = to
			}
			early := f.lightEstimate(k, from, cut)
			copy(est[:cut-from], early)
		}
		return est
	}
	return f.lightEstimate(k, from, to)
}

// lightEstimate is the light-part Count-Min estimate with co-located
// heavy-flow subtraction.
func (f *Full) lightEstimate(k flowkey.Key, from, to int64) []float64 {
	buckets := f.light.bucketsFor(k)
	deduct := make([][]float64, len(buckets))
	for i := range f.heavy {
		slot := &f.heavy[i]
		if !slot.valid || slot.key == k {
			continue
		}
		hb := f.light.bucketsFor(slot.key)
		var curve []float64
		for bi, b := range buckets {
			for _, ob := range hb {
				if ob == b {
					if curve == nil {
						curve = slot.bucket.Reconstruct(from, to)
					}
					if deduct[bi] == nil {
						deduct[bi] = make([]float64, to-from)
					}
					for j := range curve {
						deduct[bi][j] += curve[j]
					}
					break
				}
			}
		}
	}
	return minAcross(buckets, from, to, deduct)
}

// MemoryBytes implements measure.SeriesEstimator.
func (f *Full) MemoryBytes() int64 {
	total := f.light.MemoryBytes()
	for i := range f.heavy {
		total += 13 + 8 // key (13B packed) + vote
		total += f.heavy[i].bucket.StateBytes(f.cfg.Light.K)
	}
	return total
}

// ReportBytes implements measure.SeriesEstimator.
func (f *Full) ReportBytes() int64 {
	total := f.light.ReportBytes()
	for i := range f.heavy {
		if f.heavy[i].valid {
			total += 13 + f.heavy[i].bucket.ReportBytes()
		}
	}
	return total
}

// Reset clears both parts for a new measurement period. Slots are reset in
// place: heavy buckets are slab-resident values, never copied.
func (f *Full) Reset() {
	f.sealed = false
	f.light.Reset()
	for i := range f.heavy {
		slot := &f.heavy[i]
		slot.key = flowkey.Key{}
		slot.vote = 0
		slot.valid = false
		slot.bucket.Reset()
	}
}
