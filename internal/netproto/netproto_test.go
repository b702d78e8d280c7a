package netproto

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	srcIP = [4]byte{192, 168, 1, 10}
	dstIP = [4]byte{192, 168, 1, 20}
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello liquid")
	frame := BuildFrame(srcIP, dstIP, 4000, 5000, payload)
	f, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.IP.Src != srcIP || f.IP.Dst != dstIP {
		t.Errorf("addresses: %v → %v", f.IP.Src, f.IP.Dst)
	}
	if f.UDP.SrcPort != 4000 || f.UDP.DstPort != 5000 {
		t.Errorf("ports: %d → %d", f.UDP.SrcPort, f.UDP.DstPort)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload = %q", f.Payload)
	}
}

func TestFrameChecksumValidation(t *testing.T) {
	frame := BuildFrame(srcIP, dstIP, 1, 2, []byte("x"))
	// Corrupt the IP header.
	bad := append([]byte(nil), frame...)
	bad[8] ^= 0xFF // TTL
	if _, err := ParseFrame(bad); err == nil {
		t.Error("corrupted IP header accepted")
	}
	// Corrupt the UDP payload (checksum covers it).
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := ParseFrame(bad); err == nil {
		t.Error("corrupted UDP payload accepted")
	}
	// Zero UDP checksum disables validation (allowed by RFC 768).
	nochk := append([]byte(nil), frame...)
	nochk[26], nochk[27] = 0, 0
	nochk[len(nochk)-1] ^= 0x01
	if _, err := ParseFrame(nochk); err != nil {
		t.Errorf("zero-checksum frame rejected: %v", err)
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := ParseFrame(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
	// Non-UDP protocol.
	h := IPv4Header{TotalLen: 20, TTL: 1, Protocol: 6, Src: srcIP, Dst: dstIP}
	if _, err := ParseFrame(h.Marshal()); err == nil {
		t.Error("TCP frame accepted by UDP parser")
	}
	// Wrong version.
	frame := BuildFrame(srcIP, dstIP, 1, 2, nil)
	frame[0] = 0x65
	if _, err := ParseFrame(frame); err == nil {
		t.Error("IPv6 version accepted")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd length.
	if got := Checksum([]byte{0x12}); got != ^uint16(0x1200) {
		t.Errorf("odd checksum = %#04x", got)
	}
}

// Property: any payload survives a frame round trip.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sp, dp uint16) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame := BuildFrame(srcIP, dstIP, sp, dp, payload)
		got, err := ParseFrame(frame)
		return err == nil && bytes.Equal(got.Payload, payload) &&
			got.UDP.SrcPort == sp && got.UDP.DstPort == dp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestControlPacketRoundTrip(t *testing.T) {
	p := Packet{Command: CmdStatus, Body: []byte{1, 2, 3}}
	got, err := ParsePacket(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != CmdStatus || !bytes.Equal(got.Body, []byte{1, 2, 3}) {
		t.Errorf("packet = %+v", got)
	}
	if !IsLiquidPacket(p.Marshal()) {
		t.Error("IsLiquidPacket false for control packet")
	}
	if IsLiquidPacket([]byte("GET / HTTP/1.0")) {
		t.Error("IsLiquidPacket true for HTTP")
	}
	if _, err := ParsePacket([]byte{'L', 'Q'}); err == nil {
		t.Error("short packet accepted")
	}
	if _, err := ParsePacket([]byte{'X', 'Y', 1, 1}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ParsePacket([]byte{'L', 'Q', 99, 1}); err == nil {
		t.Error("bad version accepted")
	}
}

func TestControlPacketBoardHeader(t *testing.T) {
	// Board 0 without a seq marshals as the paper's v1 header.
	p0 := Packet{Command: CmdStatus, Body: []byte{1}}
	raw0 := p0.Marshal()
	if raw0[2] != Version || len(raw0) != headerLen+1 {
		t.Errorf("board-0 packet not v1: % x", raw0)
	}
	// A non-zero board needs the v4 header: v1 has no board byte.
	p3 := Packet{Command: CmdStartLEON, Board: 3, Body: []byte{4, 5}}
	raw3 := p3.Marshal()
	if raw3[2] != VersionTrace {
		t.Errorf("board-3 packet version = %d, want v4", raw3[2])
	}
	got, err := ParsePacket(raw3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != CmdStartLEON || got.Board != 3 || !bytes.Equal(got.Body, []byte{4, 5}) {
		t.Errorf("board-3 packet = %+v", got)
	}
	if !IsLiquidPacket(raw3) {
		t.Error("IsLiquidPacket false for v4 packet")
	}
	// The retired v2 (board) and v3 (board + seq) headers are refused.
	for _, v := range []uint8{2, 3} {
		if _, err := ParsePacket([]byte{'L', 'Q', v, 1, 3, 0, 9}); err == nil {
			t.Errorf("v%d packet accepted", v)
		}
	}
}

func TestControlPacketTraceHeader(t *testing.T) {
	// The v4 header: board + seq + 64-bit trace id.
	p := Packet{Command: CmdStartLEON, Board: 2, Seq: 0x1234, HasSeq: true,
		TraceID: 0xDEADBEEFCAFEF00D, Body: []byte{7, 8}}
	raw := p.Marshal()
	if raw[2] != VersionTrace || len(raw) != headerLen+11+2 {
		t.Fatalf("v4 packet shape: % x", raw)
	}
	got, err := ParsePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != CmdStartLEON || got.Board != 2 || !got.HasSeq || got.Seq != 0x1234 ||
		got.TraceID != 0xDEADBEEFCAFEF00D || !bytes.Equal(got.Body, []byte{7, 8}) {
		t.Fatalf("v4 packet = %+v", got)
	}
	if !IsLiquidPacket(raw) {
		t.Error("IsLiquidPacket false for v4 packet")
	}
	// An untraced sequenced packet is still v4, with trace id 0.
	raw = (Packet{Command: CmdStatus, Seq: 9, HasSeq: true}).Marshal()
	if raw[2] != VersionTrace || len(raw) != headerLen+11 {
		t.Errorf("untraced seq packet: % x, want a bare v4 header", raw)
	}
	if got, err := ParsePacket(raw); err != nil || got.TraceID != 0 || !got.HasSeq || got.Seq != 9 {
		t.Errorf("untraced v4 packet = %+v, %v", got, err)
	}
	if raw := (Packet{Command: CmdStatus}).Marshal(); raw[2] != Version {
		t.Errorf("plain packet version = %d, want v1", raw[2])
	}
	// A v4 header shorter than 15 bytes is truncated.
	if _, err := ParsePacket([]byte{'L', 'Q', VersionTrace, 1, 0, 0, 1, 0, 0, 0, 0}); err == nil {
		t.Error("truncated v4 packet accepted")
	}
}

func TestTracesBodyRoundTrip(t *testing.T) {
	// Empty request = all traces.
	req, err := ParseTracesReq(nil)
	if err != nil || req.TraceID != 0 {
		t.Fatalf("empty traces req = %+v, %v", req, err)
	}
	req2, err := ParseTracesReq(TracesReq{TraceID: 0xABCD}.Marshal())
	if err != nil || req2.TraceID != 0xABCD {
		t.Fatalf("traces req = %+v, %v", req2, err)
	}
	if _, err := ParseTracesReq([]byte{1, 2, 3}); err == nil {
		t.Error("short traces req accepted")
	}
	resp := TracesResp{Status: StatusOK, JSON: []byte(`[{"id":1}]`)}
	got, err := ParseTracesResp(resp.Marshal())
	if err != nil || got.Status != StatusOK || !bytes.Equal(got.JSON, resp.JSON) {
		t.Fatalf("traces resp = %+v, %v", got, err)
	}
	if _, err := ParseTracesResp(nil); err == nil {
		t.Error("empty traces resp accepted")
	}
}

func TestLoadChunkRoundTrip(t *testing.T) {
	c := LoadChunk{Seq: 2, Total: 5, Addr: 0x40001000, TotalLen: 5000, Offset: 2048, Data: []byte{9, 8, 7}}
	got, err := ParseLoadChunk(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || got.Total != 5 || got.Addr != 0x40001000 ||
		got.TotalLen != 5000 || got.Offset != 2048 || !bytes.Equal(got.Data, c.Data) {
		t.Errorf("chunk = %+v", got)
	}
}

func TestLoadChunkValidation(t *testing.T) {
	if _, err := ParseLoadChunk(make([]byte, 4)); err == nil {
		t.Error("short chunk accepted")
	}
	bad := LoadChunk{Seq: 5, Total: 5, Addr: 1, TotalLen: 10}
	if _, err := ParseLoadChunk(bad.Marshal()); err == nil {
		t.Error("seq ≥ total accepted")
	}
	bad = LoadChunk{Seq: 0, Total: 0, Addr: 1, TotalLen: 10}
	if _, err := ParseLoadChunk(bad.Marshal()); err == nil {
		t.Error("zero total accepted")
	}
	bad = LoadChunk{Seq: 0, Total: 1, TotalLen: 2, Offset: 0, Data: []byte{1, 2, 3}}
	if _, err := ParseLoadChunk(bad.Marshal()); err == nil {
		t.Error("overlong chunk accepted")
	}
	// A forged image length the chunk count cannot carry is refused
	// before any receiver sizes a buffer from it.
	bad = LoadChunk{Seq: 0, Total: 2, Addr: 1, TotalLen: 0xF0000000}
	if _, err := ParseLoadChunk(bad.Marshal()); err == nil {
		t.Error("image length beyond Total×MaxChunkData accepted")
	}
	ok := LoadChunk{Seq: 1, Total: 2, Addr: 1, TotalLen: 2 * MaxChunkData, Offset: MaxChunkData}
	if _, err := ParseLoadChunk(ok.Marshal()); err != nil {
		t.Errorf("full-length two-chunk image refused: %v", err)
	}
}

// TestMaxChunkFillsOneFrame: a load datagram carrying a MaxChunkData
// chunk, under either header generation and wrapped in the FPX's
// IPv4/UDP frame, fits one Ethernet MTU, and MaxChunkData is the most
// whole lines that do. MaxChunkData is cut in lines, so a v4 datagram
// leaves under one line of the frame unused: one data byte past that
// room does not fit. MarshalPacket's one-buffer encoding is the
// datagram Marshal builds around the chunk's body.
func TestMaxChunkFillsOneFrame(t *testing.T) {
	if MaxChunkData%chunkLineBytes != 0 {
		t.Fatalf("MaxChunkData %d is not whole %d-byte lines", MaxChunkData, chunkLineBytes)
	}
	frameLen := func(hdr Packet, data int) int {
		c := LoadChunk{Seq: 1, Total: 3, Addr: 0x40001000, TotalLen: 3 * MaxChunkData, Offset: MaxChunkData, Data: make([]byte, data)}
		raw := c.MarshalPacket(hdr)
		hdr.Body = c.Marshal()
		if !bytes.Equal(raw, hdr.Marshal()) {
			t.Fatalf("MarshalPacket differs from Marshal around the chunk body")
		}
		return len(BuildFrame(srcIP, dstIP, 4000, 5001, raw))
	}
	for _, tc := range []struct {
		name string
		hdr  Packet
	}{
		{"v4", Packet{Command: CmdLoadProgram, Board: 1, Seq: 9, HasSeq: true, TraceID: 0xabc}},
		{"v1", Packet{Command: CmdLoadProgram}},
	} {
		if n := frameLen(tc.hdr, MaxChunkData); n > ethernetMTU {
			t.Errorf("%s: a MaxChunkData chunk's frame is %d bytes, over the %d-byte MTU", tc.name, n, ethernetMTU)
		}
		if n := frameLen(tc.hdr, MaxChunkData+chunkLineBytes); n <= ethernetMTU {
			t.Errorf("%s: one more line still fits (%d bytes): MaxChunkData is not the most whole lines", tc.name, n)
		}
	}
	v4 := Packet{Command: CmdLoadProgram, HasSeq: true}
	room := ethernetMTU - frameLen(v4, MaxChunkData)
	if room >= chunkLineBytes {
		t.Errorf("a v4 frame leaves %d bytes unused, a whole line", room)
	}
	if n := frameLen(v4, MaxChunkData+room+1); n <= ethernetMTU {
		t.Errorf("a chunk one byte past the frame's room fits (%d bytes)", n)
	}
}

func TestChunkImageCoversImage(t *testing.T) {
	image := make([]byte, 2*MaxChunkData+100)
	for i := range image {
		image[i] = byte(i)
	}
	chunks := ChunkImage(0x40001000, image)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks", len(chunks))
	}
	rebuilt := make([]byte, len(image))
	for _, c := range chunks {
		if c.Addr != 0x40001000 || int(c.TotalLen) != len(image) || int(c.Total) != len(chunks) {
			t.Errorf("chunk metadata %+v", c)
		}
		copy(rebuilt[c.Offset:], c.Data)
	}
	if !bytes.Equal(rebuilt, image) {
		t.Error("chunks do not reassemble the image")
	}
	// Empty image still yields one (empty) chunk.
	if got := ChunkImage(1, nil); len(got) != 1 {
		t.Errorf("empty image → %d chunks", len(got))
	}
}

func TestMessageRoundTrips(t *testing.T) {
	sr := StartReq{Entry: 0x40001000, MaxCycles: 1 << 40}
	if got, err := ParseStartReq(sr.Marshal()); err != nil || got != sr {
		t.Errorf("StartReq: %+v, %v", got, err)
	}
	rr := RunReport{Status: StatusFault, Cycles: 123456789, Instructions: 42, TT: 2, FaultPC: 0x40001010}
	if got, err := ParseRunReport(rr.Marshal()); err != nil || got != rr {
		t.Errorf("RunReport: %+v, %v", got, err)
	}
	mq := MemReq{Addr: 0x40002000, Length: 16}
	if got, err := ParseMemReq(mq.Marshal()); err != nil || got.Addr != mq.Addr || got.Length != 16 {
		t.Errorf("MemReq: %+v, %v", got, err)
	}
	mr := MemResp{Status: StatusOK, Addr: 4, Data: []byte{1, 2}}
	if got, err := ParseMemResp(mr.Marshal()); err != nil || got.Addr != 4 || !bytes.Equal(got.Data, mr.Data) {
		t.Errorf("MemResp: %+v, %v", got, err)
	}
	st := StatusResp{State: 3, BootOK: true, LoadedAddr: 0x40001000, CurCycles: 123456789, Last: rr}
	if got, err := ParseStatusResp(st.Marshal()); err != nil || got != st {
		t.Errorf("StatusResp: %+v, %v", got, err)
	}
	er := ErrorResp{Code: 7, Msg: "bad address"}
	if got, err := ParseErrorResp(er.Marshal()); err != nil || got != er {
		t.Errorf("ErrorResp: %+v, %v", got, err)
	}
}

func TestTruncatedMessages(t *testing.T) {
	if _, err := ParseStartReq(make([]byte, 3)); err == nil {
		t.Error("short StartReq accepted")
	}
	if _, err := ParseRunReport(make([]byte, 5)); err == nil {
		t.Error("short RunReport accepted")
	}
	if _, err := ParseMemReq(make([]byte, 2)); err == nil {
		t.Error("short MemReq accepted")
	}
	if _, err := ParseMemResp(nil); err == nil {
		t.Error("short MemResp accepted")
	}
	if _, err := ParseStatusResp(make([]byte, 10)); err == nil {
		t.Error("short StatusResp accepted")
	}
	if _, err := ParseErrorResp(nil); err == nil {
		t.Error("short ErrorResp accepted")
	}
}
