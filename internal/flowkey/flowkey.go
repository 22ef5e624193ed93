// Package flowkey defines the canonical 5-tuple flow identifier shared by
// the simulator, the sketches and the analyzer, together with seeded hashing
// suitable for the pairwise-independent hash rows of a Count-Min sketch.
package flowkey

import (
	"cmp"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Key is a 5-tuple flow identifier. IPv4 addresses are stored as uint32 in
// host order (data-center fabrics in the paper are IPv4).
type Key struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Proto numbers used across the repository.
const (
	ProtoTCP = 6
	ProtoUDP = 17 // RoCEv2 rides on UDP/4791
)

// RoCEPort is the well-known UDP destination port of RoCEv2.
const RoCEPort = 4791

// TextLen is the length of the longest text AppendTo writes.
const TextLen = len("255.255.255.255:65535>255.255.255.255:65535/255")

// String renders the key in src→dst form.
func (k Key) String() string {
	var buf [TextLen]byte
	return string(k.AppendTo(buf[:0]))
}

// AppendTo appends the key's String form, "src:port>dst:port/proto", to b
// and returns the extended slice.
func (k Key) AppendTo(b []byte) []byte {
	b = appendEndpoint(b, k.SrcIP, k.SrcPort)
	b = append(b, '>')
	b = appendEndpoint(b, k.DstIP, k.DstPort)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(k.Proto), 10)
}

func appendEndpoint(b []byte, ip uint32, port uint16) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
		b = append(b, '.')
	}
	b[len(b)-1] = ':'
	return strconv.AppendUint(b, uint64(port), 10)
}

// Parse is the inverse of String: it reads a key back from the
// "src:port>dst:port/proto" form, so flows printed by one tool (an event
// listing, a log line) can be fed verbatim into another (a query API).
func Parse(s string) (Key, error) {
	src, rest, ok := strings.Cut(s, ">")
	if !ok {
		return Key{}, fmt.Errorf("flowkey: %q: missing '>'", s)
	}
	dst, proto, ok := strings.Cut(rest, "/")
	if !ok {
		return Key{}, fmt.Errorf("flowkey: %q: missing '/proto'", s)
	}
	var k Key
	var err error
	if k.SrcIP, k.SrcPort, err = parseEndpoint(src); err != nil {
		return Key{}, fmt.Errorf("flowkey: %q: src: %w", s, err)
	}
	if k.DstIP, k.DstPort, err = parseEndpoint(dst); err != nil {
		return Key{}, fmt.Errorf("flowkey: %q: dst: %w", s, err)
	}
	p, err := strconv.ParseUint(proto, 10, 8)
	if err != nil {
		return Key{}, fmt.Errorf("flowkey: %q: proto: %w", s, err)
	}
	k.Proto = uint8(p)
	return k, nil
}

func parseEndpoint(s string) (ip uint32, port uint16, err error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q: missing ':port'", s)
	}
	addr, err := netip.ParseAddr(host)
	if err != nil {
		return 0, 0, err
	}
	if !addr.Is4() {
		return 0, 0, fmt.Errorf("%q: not IPv4", host)
	}
	b := addr.As4()
	p, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return 0, 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), uint16(p), nil
}

// Compare orders keys lexicographically over (SrcIP, DstIP, SrcPort,
// DstPort, Proto), returning -1, 0 or +1. It gives sorts over map-derived
// key sets a deterministic total order, which the experiment harness needs
// for byte-identical output at any worker count.
func (k Key) Compare(o Key) int {
	p, q := k.Pack(), o.Pack()
	if p.a != q.a {
		return cmp.Compare(p.a, q.a)
	}
	return cmp.Compare(p.b, q.b)
}

// Reverse returns the key of the opposite direction (used for ACKs/CNPs).
func (k Key) Reverse() Key {
	return Key{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Packed is a key as the two words every hash and comparison works on. A
// caller that hashes one key under several seeds (a sketch update: one
// seed per row) packs once and hashes the words.
type Packed struct{ a, b uint64 }

// Pack encodes the key into its two words. The receiver is a pointer so
// that the inlined body reads each field where it already lies: a Key has
// one field too many for the compiler to keep it in registers, so a value
// receiver is copied through the stack — stored field by field, reloaded
// 16 bytes wide, a store-forwarding stall on every hash.
func (k *Key) Pack() Packed {
	return Packed{
		a: uint64(k.SrcIP)<<32 | uint64(k.DstIP),
		b: uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto),
	}
}

// Hash mixes the packed key with the given seed using two rounds of a
// splitmix64-style finalizer. Distinct seeds give effectively independent
// hash functions, which is all the Count-Min analysis needs in practice.
func (p Packed) Hash(seed uint64) uint64 {
	h := mix64(p.a ^ seed)
	return mix64(h ^ p.b ^ (seed * 0x9e3779b97f4a7c15))
}

// Hash is Pack().Hash(seed).
func (k Key) Hash(seed uint64) uint64 { return k.Pack().Hash(seed) }

// Reducer maps a 64-bit hash onto the bucket indices [0, n) as h % n
// does, without the hardware divide when n is a power of two (every
// shipped sketch geometry is: 128, 256 or 1024 buckets per row).
type Reducer struct {
	mask uint64 // n-1 when n is a power of two, and then div is 0
	div  uint64 // n otherwise
}

// NewReducer returns the reducer onto [0, n), for n below 1 onto the
// single index 0.
func NewReducer(n int) Reducer {
	u := uint64(max(n, 1))
	if u&(u-1) != 0 {
		return Reducer{div: u}
	}
	return Reducer{mask: u - 1}
}

// Index returns h % n.
func (r Reducer) Index(h uint64) int {
	if r.div == 0 {
		return int(h & r.mask)
	}
	return int(h % r.div)
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RowSeed derives the seed of sketch row r from a base seed; rows get
// decorrelated hash functions without the caller managing seed arrays.
func RowSeed(base uint64, row int) uint64 {
	return mix64(base + uint64(row)*0xa0761d6478bd642f + 1)
}
