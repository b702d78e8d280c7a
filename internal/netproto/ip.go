// Package netproto implements the wire formats of the Liquid
// Architecture control path: bit-exact IPv4 and UDP headers (parsed on
// the FPX by the layered protocol wrappers of [7]) and the LEON control
// packet format of §2.6 — command codes for LEON status, Load program,
// Start LEON and Read memory, with sequence numbers so multi-packet
// program loads survive UDP reordering.
package netproto

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// IPv4Header is the subset of the IPv4 header the wrappers handle (no
// options, no fragmentation).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      [4]byte
	Dst      [4]byte
}

// IPv4HeaderLen is the fixed header length (IHL=5).
const IPv4HeaderLen = 20

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// Checksum computes the RFC 1071 ones-complement sum over b.
func Checksum(b []byte) uint16 {
	return ^fold(sum(0, b))
}

// sum adds b to the ones-complement accumulator acc as big-endian
// 16-bit words, an odd trailing byte being the high byte of a
// zero-padded word. It reads eight bytes at a time: a 64-bit
// big-endian word is congruent to the sum of its four 16-bit words
// modulo 0xFFFF, and the end-around carry keeps acc congruent too (and
// zero only while every word added was zero), so fold(acc) equals the
// RFC 1071 16-bit fold. b must start at an even offset of the checksummed
// stream.
func sum(acc uint64, b []byte) uint64 {
	var carry uint64
	for len(b) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b), 0)
		acc += carry
		b = b[8:]
	}
	for len(b) >= 2 {
		acc, carry = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), 0)
		acc += carry
		b = b[2:]
	}
	if len(b) == 1 {
		acc, carry = bits.Add64(acc, uint64(b[0])<<8, 0)
		acc += carry
	}
	return acc
}

// fold reduces a ones-complement accumulator to 16 bits.
func fold(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xFFFF + acc>>16
	}
	return uint16(acc)
}

// Marshal encodes the header with a freshly computed checksum.
func (h *IPv4Header) Marshal() []byte {
	b := make([]byte, IPv4HeaderLen)
	h.put(b)
	return b
}

// put encodes the header into b[:IPv4HeaderLen], which must be zeroed,
// with a freshly computed checksum.
func (h *IPv4Header) put(b []byte) {
	b = b[:IPv4HeaderLen]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	// flags/fragment offset zero
	b[8] = h.TTL
	b[9] = h.Protocol
	copy(b[12:], h.Src[:])
	copy(b[16:], h.Dst[:])
	cs := Checksum(b)
	binary.BigEndian.PutUint16(b[10:], cs)
	h.Checksum = cs
}

// ParseIPv4 decodes and validates an IPv4 header at the front of b.
func ParseIPv4(b []byte) (IPv4Header, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, fmt.Errorf("netproto: IPv4 header truncated (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return h, fmt.Errorf("netproto: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0xF) * 4
	if ihl != IPv4HeaderLen {
		return h, fmt.Errorf("netproto: IPv4 options unsupported (IHL %d)", ihl)
	}
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return h, fmt.Errorf("netproto: bad IPv4 header checksum")
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) > len(b) {
		return h, fmt.Errorf("netproto: IPv4 total length %d exceeds frame %d", h.TotalLen, len(b))
	}
	if h.TotalLen < IPv4HeaderLen {
		return h, fmt.Errorf("netproto: IPv4 total length %d shorter than its header", h.TotalLen)
	}
	return h, nil
}

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// udpChecksum computes the UDP checksum of seg (at least a UDP header
// long) under the IPv4 pseudo-header. It sums the pseudo-header fields
// and reads seg in place, skipping the checksum field (bytes 6–7) as if
// it were zero, so neither side copies the segment.
func udpChecksum(src, dst [4]byte, seg []byte) uint16 {
	acc := uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		ProtoUDP + uint64(uint16(len(seg)))
	acc = sum(sum(acc, seg[:6]), seg[UDPHeaderLen:])
	cs := ^fold(acc)
	if cs == 0 {
		cs = 0xFFFF
	}
	return cs
}

// Frame is a parsed UDP/IPv4 frame.
type Frame struct {
	IP      IPv4Header
	UDP     UDPHeader
	Payload []byte
}

// BuildFrame assembles a complete IPv4/UDP frame in one allocation,
// computing both checksums (the packet generator of Fig. 3 does this
// in hardware).
func BuildFrame(src, dst [4]byte, srcPort, dstPort uint16, payload []byte) []byte {
	udpLen := UDPHeaderLen + len(payload)
	ip := IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + udpLen),
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      src,
		Dst:      dst,
	}
	frame := make([]byte, IPv4HeaderLen+udpLen)
	ip.put(frame)
	seg := frame[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(seg[0:], srcPort)
	binary.BigEndian.PutUint16(seg[2:], dstPort)
	binary.BigEndian.PutUint16(seg[4:], uint16(udpLen))
	copy(seg[UDPHeaderLen:], payload)
	binary.BigEndian.PutUint16(seg[6:], udpChecksum(src, dst, seg))
	return frame
}

// ParseFrame decodes and validates an IPv4/UDP frame (the receive side
// of the layered protocol wrappers).
func ParseFrame(b []byte) (Frame, error) {
	var f Frame
	ip, err := ParseIPv4(b)
	if err != nil {
		return f, err
	}
	if ip.Protocol != ProtoUDP {
		return f, fmt.Errorf("netproto: protocol %d is not UDP", ip.Protocol)
	}
	seg := b[IPv4HeaderLen:ip.TotalLen]
	if len(seg) < UDPHeaderLen {
		return f, fmt.Errorf("netproto: UDP header truncated")
	}
	f.IP = ip
	f.UDP.SrcPort = binary.BigEndian.Uint16(seg[0:])
	f.UDP.DstPort = binary.BigEndian.Uint16(seg[2:])
	f.UDP.Length = binary.BigEndian.Uint16(seg[4:])
	f.UDP.Checksum = binary.BigEndian.Uint16(seg[6:])
	if int(f.UDP.Length) != len(seg) {
		return f, fmt.Errorf("netproto: UDP length %d does not match segment %d", f.UDP.Length, len(seg))
	}
	if f.UDP.Checksum != 0 {
		// Verify: the checksum recomputed with the field read as zero
		// must equal the stored value (0 means the sender sent none).
		want := udpChecksum(ip.Src, ip.Dst, seg)
		if want != f.UDP.Checksum {
			return f, fmt.Errorf("netproto: bad UDP checksum %#04x, want %#04x", f.UDP.Checksum, want)
		}
	}
	f.Payload = seg[UDPHeaderLen:]
	return f, nil
}
