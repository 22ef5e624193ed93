package packet

import (
	"bytes"
	"testing"

	"umon/internal/flowkey"
)

// fuzzSeeds returns wire forms covering the interesting shapes: valid
// RoCE and non-RoCE mirrors, every truncation point, and a few targeted
// mutations. Go runs these as regression inputs on every plain `go test`.
func fuzzSeeds() [][]byte {
	m := &Mirrored{
		VLANID:      0x085,
		TimestampNs: 123_456_789,
		Flow: flowkey.Key{
			SrcIP: 0x0a000101, DstIP: 0x0a000201,
			SrcPort: 9000, DstPort: 4791, Proto: flowkey.ProtoUDP,
		},
		PSN: 0xabcd, CE: true, OrigLen: 1058,
	}
	valid := EncodeMirror(m)
	nonRoce := *m
	nonRoce.Flow.DstPort = 8080
	seeds := [][]byte{valid, EncodeMirror(&nonRoce), nil, bytes.Repeat([]byte{0xff}, 128)}
	for cut := 1; cut < len(valid); cut += 7 {
		seeds = append(seeds, valid[:len(valid)-cut])
	}
	for _, off := range []int{0, 12, 14, 16, 18, 19, 27, 28, 40, 55} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		seeds = append(seeds, mut)
	}
	// IHL claiming options, IHL beyond the buffer.
	for _, ihl := range []byte{0x46, 0x4f} {
		mut := append([]byte(nil), valid...)
		mut[18] = ihl
		seeds = append(seeds, mut)
	}
	// A valid mirror with IPv4 options (the IHL 0x46 seed above fails the
	// checksum).
	return append(seeds, optionsMirror(m))
}

// FuzzDecodeMirror differentially fuzzes the allocating reference decoder
// against DecodeMirrorInto: both must agree on accept/reject, produce the
// same struct on accept, and never panic or read out of bounds.
func FuzzDecodeMirror(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		legacy, legacyErr := DecodeMirror(b)
		var fast Mirrored
		fastErr := DecodeMirrorInto(b, &fast)
		if (legacyErr == nil) != (fastErr == nil) {
			t.Fatalf("decode divergence: reference err %v, DecodeMirrorInto err %v", legacyErr, fastErr)
		}
		if legacyErr == nil && *legacy != fast {
			t.Fatalf("decode divergence: reference %+v, DecodeMirrorInto %+v", *legacy, fast)
		}
	})
}

// FuzzHeaderUnmarshal drives every header decoder over arbitrary bytes:
// they must error cleanly on malformed input, never panic, and each
// accepted header must survive a marshal round-trip of its parsed fields.
func FuzzHeaderUnmarshal(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var eth Ethernet
		if rest, err := eth.Unmarshal(b); err == nil {
			if len(b)-len(rest) != EthernetLen {
				t.Fatalf("ethernet consumed %d bytes", len(b)-len(rest))
			}
			if got := eth.Marshal(nil); !bytes.Equal(got, b[:EthernetLen]) {
				t.Fatal("ethernet marshal round-trip mismatch")
			}
		}
		var vlan VLAN
		if _, err := vlan.Unmarshal(b); err == nil {
			// The DEI bit (0x1000) is dropped on parse, so compare the
			// surviving fields rather than raw bytes.
			if vlan.ID > 0x0fff || vlan.Priority > 7 {
				t.Fatalf("vlan fields out of range: %+v", vlan)
			}
			if binary16(b[2:4]) != vlan.EtherType {
				t.Fatal("vlan ethertype mismatch")
			}
		}
		var ip IPv4
		if rest, err := ip.Unmarshal(b); err == nil {
			ihl := int(b[0]&0x0f) * 4
			if len(b)-len(rest) != ihl {
				t.Fatalf("ipv4 consumed %d bytes, IHL %d", len(b)-len(rest), ihl)
			}
		}
		var udp UDP
		if _, err := udp.Unmarshal(b); err == nil {
			if binary16(b[0:2]) != udp.SrcPort || binary16(b[2:4]) != udp.DstPort {
				t.Fatal("udp port mismatch")
			}
		}
		var bth BTH
		if _, err := bth.Unmarshal(b); err == nil && bth.PSN > 0xffffff {
			t.Fatalf("BTH PSN %#x exceeds 24 bits", bth.PSN)
		}
	})
}

func binary16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
