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

// Full is the full-version WaveSketch. It only measures; its report answers
// flow queries, heavy flows from their own curves and the rest from the light
// part less the heavy curves that share its buckets (§4.2).
type Full struct {
	cfg    FullConfig
	heavy  []heavySlot
	slots  flowkey.Reducer // onto heavy
	light  *Basic
	sealed bool
}

// NewFull builds a full WaveSketch.
func NewFull(cfg FullConfig) (*Full, error) {
	if cfg.HeavyRows < 1 || cfg.HeavyRows > MaxBuckets {
		return nil, fmt.Errorf("wavesketch: need 1 ≤ HeavyRows ≤ %d, got %d", MaxBuckets, cfg.HeavyRows)
	}
	light, err := NewBasic(cfg.Light)
	if err != nil {
		return nil, err
	}
	f := &Full{cfg: cfg, light: light, slots: flowkey.NewReducer(cfg.HeavyRows)}
	f.heavy = make([]heavySlot, cfg.HeavyRows)
	cfg.Light.initBuckets(len(f.heavy), func(i int) *Bucket { return &f.heavy[i].bucket })
	return f, nil
}

// Name is the variant's figure legend.
func (f *Full) Name() string { return f.cfg.Light.Variant.String() + "-Full" }

// Update adds v bytes of flow k to window w. Per §4.2, the light part is
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

// Seal ends the measurement period in both parts.
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

// MemoryBytes is the device memory the sketch holds.
func (f *Full) MemoryBytes() int64 {
	total := f.light.MemoryBytes()
	for i := range f.heavy {
		total += 13 + 8 // key (13B packed) + vote
		total += f.heavy[i].bucket.StateBytes(f.cfg.Light.K)
	}
	return total
}

// ReportBytes is §4.2's estimate of the period's upload.
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
