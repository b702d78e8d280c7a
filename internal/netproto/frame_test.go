package netproto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The byte-wise reference for the protocol wrappers: RFC 1071 summed
// one 16-bit word at a time, the UDP checksum computed over an explicit
// pseudo-header copy of the segment, and a parse that zeroes the
// checksum field in a copy before recomputing it. The wrappers sum in
// place, eight bytes at a time; these pin them to the straightforward
// reading of the RFCs.

func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

func refUDPChecksum(src, dst [4]byte, seg []byte) uint16 {
	pseudo := make([]byte, 12+len(seg))
	copy(pseudo, src[:])
	copy(pseudo[4:], dst[:])
	pseudo[9] = ProtoUDP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(seg)))
	copy(pseudo[12:], seg)
	cs := refChecksum(pseudo)
	if cs == 0 {
		cs = 0xFFFF
	}
	return cs
}

func refBuildFrame(src, dst [4]byte, srcPort, dstPort uint16, payload []byte) []byte {
	udpLen := UDPHeaderLen + len(payload)
	ip := make([]byte, IPv4HeaderLen)
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(IPv4HeaderLen+udpLen))
	ip[8] = 64
	ip[9] = ProtoUDP
	copy(ip[12:], src[:])
	copy(ip[16:], dst[:])
	binary.BigEndian.PutUint16(ip[10:], refChecksum(ip))
	seg := make([]byte, udpLen)
	binary.BigEndian.PutUint16(seg[0:], srcPort)
	binary.BigEndian.PutUint16(seg[2:], dstPort)
	binary.BigEndian.PutUint16(seg[4:], uint16(udpLen))
	copy(seg[8:], payload)
	binary.BigEndian.PutUint16(seg[6:], refUDPChecksum(src, dst, seg))
	return append(ip, seg...)
}

func refParseFrame(b []byte) (Frame, error) {
	var f Frame
	if len(b) < IPv4HeaderLen || b[0] != 0x45 || refChecksum(b[:IPv4HeaderLen]) != 0 {
		return f, fmt.Errorf("bad IPv4 header")
	}
	f.IP = IPv4Header{
		TOS:      b[1],
		TotalLen: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:]),
	}
	copy(f.IP.Src[:], b[12:16])
	copy(f.IP.Dst[:], b[16:20])
	if int(f.IP.TotalLen) > len(b) || f.IP.TotalLen < IPv4HeaderLen+UDPHeaderLen || f.IP.Protocol != ProtoUDP {
		return Frame{}, fmt.Errorf("bad IPv4 length or protocol")
	}
	seg := b[IPv4HeaderLen:f.IP.TotalLen]
	f.UDP = UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(seg[0:]),
		DstPort:  binary.BigEndian.Uint16(seg[2:]),
		Length:   binary.BigEndian.Uint16(seg[4:]),
		Checksum: binary.BigEndian.Uint16(seg[6:]),
	}
	if int(f.UDP.Length) != len(seg) {
		return Frame{}, fmt.Errorf("bad UDP length")
	}
	if f.UDP.Checksum != 0 {
		chk := append([]byte(nil), seg...)
		chk[6], chk[7] = 0, 0
		if refUDPChecksum(f.IP.Src, f.IP.Dst, chk) != f.UDP.Checksum {
			return Frame{}, fmt.Errorf("bad UDP checksum")
		}
	}
	f.Payload = seg[UDPHeaderLen:]
	return f, nil
}

// sameParse reports how ParseFrame and the reference disagree on b
// ("" when they agree on accept/reject and, if accepted, on every
// field and the payload).
func sameParse(b []byte) string {
	got, err := ParseFrame(b)
	want, rerr := refParseFrame(b)
	switch {
	case (err == nil) != (rerr == nil):
		return fmt.Sprintf("ParseFrame err=%v, reference err=%v", err, rerr)
	case err != nil:
		return ""
	case got.IP != want.IP || got.UDP != want.UDP || !bytes.Equal(got.Payload, want.Payload):
		return fmt.Sprintf("ParseFrame %+v, reference %+v", got, want)
	}
	return ""
}

// TestChecksumMatchesReference pins the in-place, eight-bytes-at-a-time
// wrappers to the byte-wise reference at every length 0–2048: random
// bytes, all-0xFF (every word add carries) and all-zero input, for
// Checksum itself and for whole frames from BuildFrame.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{255, 255, 255, 255}
	for n := 0; n <= 2048; n++ {
		random := make([]byte, n)
		rng.Read(random)
		for _, in := range []struct {
			name string
			b    []byte
		}{
			{"random", random},
			{"0xFF", bytes.Repeat([]byte{0xFF}, n)},
			{"zero", make([]byte, n)},
		} {
			if got, want := Checksum(in.b), refChecksum(in.b); got != want {
				t.Fatalf("Checksum(%s, len %d) = %#04x, reference %#04x", in.name, n, got, want)
			}
			frame := BuildFrame(src, dst, 0xFFFF, uint16(n), in.b)
			if want := refBuildFrame(src, dst, 0xFFFF, uint16(n), in.b); !bytes.Equal(frame, want) {
				t.Fatalf("BuildFrame(%s, len %d) differs from the reference:\n% x\n% x", in.name, n, frame, want)
			}
			if d := sameParse(frame); d != "" {
				t.Fatalf("%s frame, len %d: %s", in.name, n, d)
			}
			frame[rng.Intn(len(frame))] ^= byte(1 + rng.Intn(255))
			if d := sameParse(frame); d != "" {
				t.Fatalf("corrupted %s frame, len %d: %s", in.name, n, d)
			}
		}
	}
}

// TestParseFrameShortTotalLength: an IPv4 header with a valid checksum
// whose total length is shorter than the headers it declares is
// rejected, not sliced out of range.
func TestParseFrameShortTotalLength(t *testing.T) {
	for _, total := range []uint16{0, 19, IPv4HeaderLen, IPv4HeaderLen + UDPHeaderLen - 1} {
		frame := BuildFrame([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 9, 10, []byte("payload"))
		binary.BigEndian.PutUint16(frame[2:], total)
		binary.BigEndian.PutUint16(frame[10:], 0)
		binary.BigEndian.PutUint16(frame[10:], Checksum(frame[:IPv4HeaderLen]))
		if _, err := ParseFrame(frame); err == nil {
			t.Errorf("total length %d accepted", total)
		}
	}
}

// FuzzParseFrame checks the wrappers against the byte-wise reference:
// any addresses, ports and payload survive a BuildFrame → ParseFrame
// round trip (and build the reference's exact bytes); a frame with one
// byte flipped, and the raw input read as a frame, are accepted or
// rejected exactly as the reference does, with the same fields.
func FuzzParseFrame(f *testing.F) {
	f.Add(uint32(0x0A000002), uint32(0x0A000001), uint16(41000), uint16(5001), uint16(0x0115),
		Packet{Command: CmdStatus, Seq: 1, HasSeq: true}.Marshal())
	f.Add(uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint16(0xFFFF), uint16(0xFFFF), uint16(0xFF1B),
		bytes.Repeat([]byte{0xFF}, 33))
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint16(0), []byte{})
	f.Add(uint32(0x7F000001), uint32(0x0A000002), uint16(5001), uint16(5001), uint16(0x0106),
		BuildFrame([4]byte{127, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 5001, 5001, []byte("LQ\x01\x01")))
	f.Fuzz(func(t *testing.T, src, dst uint32, srcPort, dstPort, flip uint16, data []byte) {
		var s, d [4]byte
		binary.BigEndian.PutUint32(s[:], src)
		binary.BigEndian.PutUint32(d[:], dst)
		if IPv4HeaderLen+UDPHeaderLen+len(data) <= 0xFFFF {
			frame := BuildFrame(s, d, srcPort, dstPort, data)
			if want := refBuildFrame(s, d, srcPort, dstPort, data); !bytes.Equal(frame, want) {
				t.Fatalf("BuildFrame differs from the reference:\n% x\n% x", frame, want)
			}
			fr, err := ParseFrame(frame)
			if err != nil {
				t.Fatalf("built frame rejected: %v", err)
			}
			if fr.IP.Src != s || fr.IP.Dst != d || fr.UDP.SrcPort != srcPort ||
				fr.UDP.DstPort != dstPort || !bytes.Equal(fr.Payload, data) {
				t.Fatalf("round trip diverged: %+v", fr)
			}
			frame[int(flip)%len(frame)] ^= byte(flip>>8) | 1
			if diff := sameParse(frame); diff != "" {
				t.Fatalf("flipped frame: %s", diff)
			}
		}
		if diff := sameParse(data); diff != "" {
			t.Fatalf("raw input: %s", diff)
		}
	})
}
