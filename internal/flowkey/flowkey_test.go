package flowkey

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	k := Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 10007, DstPort: RoCEPort, Proto: ProtoUDP}
	s := k.String()
	for _, want := range []string{"10.0.1.1", "10.0.2.1", "10007", "4791", "/17"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	// Byte for byte what fmt and netip printed before String appended its
	// own digits, in one allocation, and never longer than TextLen.
	viaFmt := func(k Key) string {
		ip := func(v uint32) netip.Addr {
			return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		}
		return fmt.Sprintf("%s:%d>%s:%d/%d", ip(k.SrcIP), k.SrcPort, ip(k.DstIP), k.DstPort, k.Proto)
	}
	longest := Key{SrcIP: math.MaxUint32, DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16, Proto: math.MaxUint8}
	for _, k := range []Key{k, {}, longest} {
		if got := k.String(); got != viaFmt(k) || len(got) > TextLen {
			t.Errorf("String = %q (%d bytes), want %q within %d", got, len(got), viaFmt(k), TextLen)
		}
	}
	if err := quick.Check(func(k Key) bool {
		return k.String() == viaFmt(k) && string(k.AppendTo([]byte("x "))) == "x "+viaFmt(k)
	}, nil); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = longest.String() }); n > 1 {
		t.Errorf("String allocates %v times, want 1", n)
	}
}

// TestParseRoundTrip pins Parse as the exact inverse of String, including
// over arbitrary keys.
func TestParseRoundTrip(t *testing.T) {
	k := Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 10007, DstPort: RoCEPort, Proto: ProtoUDP}
	got, err := Parse(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("Parse(String) = %+v, want %+v", got, k)
	}
	if err := quick.Check(func(k Key) bool {
		got, err := Parse(k.String())
		return err == nil && got == k
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",
		"10.0.1.1:1>10.0.2.1:2", // no proto
		"10.0.1.1:1-10.0.2.1:2/17",
		"10.0.1.1>10.0.2.1:2/17",    // src missing port
		"10.0.1.1:1>10.0.2.1:2/300", // proto overflows uint8
		"10.0.1.1:70000>10.0.2.1:2/17",
		"::1:1>10.0.2.1:2/17", // not IPv4
		"bogus:1>10.0.2.1:2/17",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestReverse(t *testing.T) {
	k := Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 4 || r.DstPort != 3 || r.Proto != 17 {
		t.Errorf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double Reverse must be identity")
	}
}

// Hash determinism and seed sensitivity.
func TestHashProperties(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, seed uint64) bool {
		k := Key{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		h1 := k.Hash(seed)
		h2 := k.Hash(seed)
		if h1 != h2 {
			return false
		}
		// A different seed should (essentially always) give a different
		// hash; tolerate the astronomically unlikely collision by checking
		// two alternative seeds.
		return k.Hash(seed+1) != h1 || k.Hash(seed+2) != h1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishesKeys(t *testing.T) {
	seen := make(map[uint64]Key)
	for i := 0; i < 10000; i++ {
		k := Key{SrcIP: uint32(i), DstIP: uint32(i * 7), SrcPort: uint16(i), DstPort: 4791, Proto: 17}
		h := k.Hash(42)
		if prev, ok := seen[h]; ok && prev != k {
			t.Fatalf("collision between %v and %v", prev, k)
		}
		seen[h] = k
	}
}

func TestHashUniformity(t *testing.T) {
	// Bucket 64k keys into 256 bins; a decent hash keeps every bin within
	// ±35% of the mean.
	const keys, bins = 1 << 16, 256
	counts := make([]int, bins)
	for i := 0; i < keys; i++ {
		k := Key{SrcIP: uint32(i), DstIP: 0x0a000001, SrcPort: uint16(i >> 4), DstPort: 4791, Proto: 17}
		counts[k.Hash(7)%bins]++
	}
	mean := float64(keys) / bins
	for b, c := range counts {
		if float64(c) < mean*0.65 || float64(c) > mean*1.35 {
			t.Errorf("bin %d count %d deviates from mean %.0f", b, c, mean)
		}
	}
}

func TestRowSeedsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for r := 0; r < 16; r++ {
		s := RowSeed(99, r)
		if seen[s] {
			t.Fatalf("duplicate row seed at row %d", r)
		}
		seen[s] = true
	}
	if RowSeed(99, 0) != RowSeed(99, 0) {
		t.Error("RowSeed must be deterministic")
	}
	if RowSeed(99, 0) == RowSeed(100, 0) {
		t.Error("RowSeed must depend on the base seed")
	}
}

func TestRowHashIndependence(t *testing.T) {
	// Keys colliding in row 0 of a width-64 sketch should spread across
	// row 1 — the property Count-Min needs.
	const width = 64
	s0, s1 := RowSeed(5, 0), RowSeed(5, 1)
	var colliders []Key
	target := uint64(13)
	for i := 0; len(colliders) < 200 && i < 1_000_000; i++ {
		k := Key{SrcIP: uint32(i), DstIP: 9, SrcPort: 1, DstPort: 4791, Proto: 17}
		if k.Hash(s0)%width == target {
			colliders = append(colliders, k)
		}
	}
	if len(colliders) < 100 {
		t.Fatalf("found only %d colliders", len(colliders))
	}
	bins := map[uint64]int{}
	for _, k := range colliders {
		bins[k.Hash(s1)%width]++
	}
	if len(bins) < width/3 {
		t.Errorf("row-0 colliders concentrate in %d row-1 bins; rows are correlated", len(bins))
	}
}

// TestHashPinned pins Hash to the values the sealed reports, the wire
// goldens and every resident routing index were placed with: a rewrite of
// the packing or the mixer that moves one of these moves a bucket.
func TestHashPinned(t *testing.T) {
	seeds := [...]uint64{0, 1, 0x5eed0f, 0x48455659, RowSeed(0x5eed0f, 0), RowSeed(0x5eed0f, 2), ^uint64(0)}
	if seeds[4] != 0xc0a4696dde893bdf || seeds[5] != 0x7f82405b401b6310 {
		t.Fatalf("RowSeed(0x5eed0f, 0|2) = %#x, %#x", seeds[4], seeds[5])
	}
	for _, tc := range []struct {
		k    Key
		want [len(seeds)]uint64
	}{
		{Key{},
			[...]uint64{0xa706dd2f4d197e6f, 0x29e49b199086d8d3, 0xde510a0c561ae95c, 0x99192d0139253695, 0xf66f32efc059d077, 0x589246ceb667248f, 0x6ee296310be1f94c}},
		{Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 10007, DstPort: RoCEPort, Proto: ProtoUDP},
			[...]uint64{0x3fb39fe6b06bc26c, 0x1a393db7bddf974a, 0xfce63453c8f09294, 0x38a1346727f75e00, 0x38a1f13eea501ffa, 0xb21406af436bb174, 0xb1b57816e21426bc}},
		{Key{SrcIP: 0xffffffff, DstIP: 0xffffffff, SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff},
			[...]uint64{0x38acbad3188657c2, 0xd09b39a65cfc686e, 0x90d9faf71e11e03e, 0x76a12738466c3e40, 0xdfe50e9dfeaeb3dc, 0x98ec1bb9fe6bfe94, 0x4a89d1f9ca40fbcf}},
		{Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
			[...]uint64{0xe149072e3146b7b7, 0x8bdb9ab9e54e4c74, 0xe01cb135246328f, 0xb90d28ab770fb17b, 0x336c1d5430fdca43, 0x8ee2eeeedeb3cf66, 0x4367c82e223618c3}},
		{Key{SrcIP: 0xc0a80001, DstIP: 0x08080808, SrcPort: 443, DstPort: 51234, Proto: ProtoTCP},
			[...]uint64{0xdd406da28bc6e2dd, 0xd72ad488bbc3b9e9, 0x9812951d17c245d0, 0x47766fb551cfe0b3, 0xafe5ca6c7dfbd948, 0xec19d08ad1d2634e, 0xd1704821c890cdb9}},
	} {
		p := tc.k.Pack()
		for i, seed := range seeds {
			if got := tc.k.Hash(seed); got != tc.want[i] {
				t.Errorf("%v.Hash(%#x) = %#x, want %#x", tc.k, seed, got, tc.want[i])
			}
			if got := p.Hash(seed); got != tc.want[i] {
				t.Errorf("%v.Pack().Hash(%#x) = %#x, want %#x", tc.k, seed, got, tc.want[i])
			}
		}
	}
}

// TestCompareIsFieldOrder checks Compare against the lexicographic field
// order it documents.
func TestCompareIsFieldOrder(t *testing.T) {
	cmp := func(a, b uint64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	f := func(a, b Key, same uint8) bool {
		// Make leading fields agree often enough to reach the later ones.
		if same&1 != 0 {
			b.SrcIP = a.SrcIP
		}
		if same&2 != 0 {
			b.DstIP = a.DstIP
		}
		if same&4 != 0 {
			b.SrcPort = a.SrcPort
		}
		if same&8 != 0 {
			b.DstPort = a.DstPort
		}
		want := 0
		for _, c := range []int{
			cmp(uint64(a.SrcIP), uint64(b.SrcIP)), cmp(uint64(a.DstIP), uint64(b.DstIP)),
			cmp(uint64(a.SrcPort), uint64(b.SrcPort)), cmp(uint64(a.DstPort), uint64(b.DstPort)),
			cmp(uint64(a.Proto), uint64(b.Proto)),
		} {
			if c != 0 {
				want = c
				break
			}
		}
		return a.Compare(b) == want && b.Compare(a) == -want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReducerIsModulo checks Index == h % n on both arms of the reducer,
// and that a reducer onto nothing (the zero value included) stays at 0.
func TestReducerIsModulo(t *testing.T) {
	for _, r := range []Reducer{{}, NewReducer(0), NewReducer(-3)} {
		if r.Index(0) != 0 || r.Index(^uint64(0)) != 0 {
			t.Errorf("%+v leaves index 0", r)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 128, 255, 256, 257, 1000, 1024, 1 << 20, 1<<31 - 1} {
		r := NewReducer(n)
		f := func(h uint64) bool { return r.Index(h) == int(h%uint64(n)) }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("n = %d: %v", n, err)
		}
		for _, h := range []uint64{0, 1, uint64(n) - 1, uint64(n), uint64(n) + 1, ^uint64(0)} {
			if !f(h) {
				t.Errorf("NewReducer(%d).Index(%#x) = %d, want %d", n, h, r.Index(h), h%uint64(n))
			}
		}
	}
}

var sinkHash uint64

// BenchmarkKeyHash times one seeded hash of a key passed by value, as
// every sketch row, routing probe and ECMP choice pays it.
func BenchmarkKeyHash(b *testing.B) {
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{SrcIP: uint32(i) * 2654435761, DstIP: 0x0a000001, SrcPort: uint16(i), DstPort: RoCEPort, Proto: ProtoUDP}
	}
	seed := RowSeed(0x5eed0f, 0)
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		h ^= keys[i&1023].Hash(seed)
	}
	sinkHash = h
}
