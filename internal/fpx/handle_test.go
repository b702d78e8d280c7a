package fpx

import (
	"bytes"
	"encoding/binary"
	"testing"

	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// TestHandleFrameMatchesHandle feeds twin platforms the same datagrams
// from two peers, one through Handle and one framed through
// HandleFrame: every reply is the same, each reply frame is addressed
// back to its sender, and the twins count the same traffic.
func TestHandleFrameMatchesHandle(t *testing.T) {
	direct := New(NewEmulator(), fpxIP, fpxPort)
	framed := New(NewEmulator(), fpxIP, fpxPort)
	chunks := netproto.ChunkImage(leon.DefaultLoadAddr, bytes.Repeat([]byte{0xA5}, netproto.MaxChunkData+40))
	v4 := func(cmd uint8, seq uint16, body []byte) []byte {
		return netproto.Packet{Command: cmd, Seq: seq, HasSeq: true, TraceID: 0x77, Body: body}.Marshal()
	}
	for i, d := range []struct {
		src Peer
		raw []byte
	}{
		{peerA, netproto.Packet{Command: netproto.CmdStatus}.Marshal()},
		{peerA, v4(netproto.CmdLoadProgram, 1, chunks[0].Marshal())},
		{peerA, v4(netproto.CmdLoadProgram, 1, chunks[0].Marshal())}, // a retransmission: re-acked
		{peerB, v4(netproto.CmdLoadProgram, 1, chunks[0].Marshal())}, // same seq, other peer: a fresh exchange
		{peerA, v4(netproto.CmdLoadProgram, 2, chunks[1].Marshal())},
		{peerA, v4(netproto.CmdStartLEON, 3, netproto.StartReq{}.Marshal())},
		{peerB, v4(netproto.CmdResult, 2, nil)},
		{peerB, v4(netproto.CmdReadMemory, 3, netproto.MemReq{Addr: leon.DefaultLoadAddr, Length: 8}.Marshal())},
		{peerA, []byte{'L', 'Q', 9, netproto.CmdStatus}}, // unsupported version: CmdError
		{peerB, []byte("GET / HTTP/1.0")},                // not Liquid: passes through
	} {
		want, ok := direct.Handle(d.src, d.raw, tracing.Ctx{})
		out, err := framed.HandleFrame(netproto.BuildFrame(d.src.IP, fpxIP, d.src.Port, fpxPort, d.raw))
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if !ok {
			if out != nil {
				t.Errorf("datagram %d passed through Handle but drew a reply frame", i)
			}
			continue
		}
		f, err := netproto.ParseFrame(out)
		if err != nil {
			t.Fatalf("datagram %d: reply frame: %v", i, err)
		}
		if f.IP.Src != fpxIP || f.UDP.SrcPort != fpxPort || f.IP.Dst != d.src.IP || f.UDP.DstPort != d.src.Port {
			t.Errorf("datagram %d: reply frame %v:%d → %v:%d, want back to %v", i,
				f.IP.Src, f.UDP.SrcPort, f.IP.Dst, f.UDP.DstPort, d.src)
		}
		if !bytes.Equal(f.Payload, want.Marshal()) {
			t.Errorf("datagram %d: framed reply % x, direct % x", i, f.Payload, want.Marshal())
		}
	}
	for _, name := range []string{"liquid_fpx_frames_in_total", "liquid_fpx_frames_out_total",
		"liquid_fpx_frames_passthrough_total", "liquid_fpx_dup_requests_total", "liquid_fpx_loads_completed_total"} {
		if d, f := direct.Metrics().Snapshot().Counter(name), framed.Metrics().Snapshot().Counter(name); d != f {
			t.Errorf("%s: %d through Handle, %d through HandleFrame", name, d, f)
		}
	}
	if got := direct.Metrics().Snapshot().Counter("liquid_fpx_dup_requests_total"); got != 1 {
		t.Errorf("dedup re-acks = %d, want 1", got)
	}
}

// fuzzDatagram is one datagram of a FuzzHandle input.
type fuzzDatagram struct {
	fromB   bool // sent by peerB rather than peerA
	payload []byte
}

// maxFuzzDatagrams bounds how many datagrams one FuzzHandle input
// splits into.
const maxFuzzDatagrams = 8

// splitFuzzInput splits a FuzzHandle input into datagrams, each encoded
// as a flags byte (bit 0: sent by peerB), a big-endian 16-bit length
// and that many payload bytes (fewer if the input ends first).
func splitFuzzInput(data []byte) []fuzzDatagram {
	var ds []fuzzDatagram
	for len(data) >= 3 && len(ds) < maxFuzzDatagrams {
		n := min(int(binary.BigEndian.Uint16(data[1:])), len(data)-3)
		ds = append(ds, fuzzDatagram{fromB: data[0]&1 == 1, payload: data[3 : 3+n]})
		data = data[3+n:]
	}
	return ds
}

// joinFuzzInput is splitFuzzInput's inverse, for seeds.
func joinFuzzInput(ds ...fuzzDatagram) []byte {
	var b []byte
	for _, d := range ds {
		flags := byte(0)
		if d.fromB {
			flags = 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint16(b, uint16(len(d.payload)))
		b = append(b, d.payload...)
	}
	return b
}

// FuzzHandle drives the CPP's one entry with arbitrary datagram
// sequences from two peers on an emulator board. After every datagram:
// a payload with the Liquid header magic draws exactly one reply and
// any other payload none; a reply to a packet ParsePacket accepts
// echoes its board, seq and trace id; every payload taken is either
// answered or passed through; the dedup window stays within
// DedupWindow exchanges; and no reassembly buffer outgrows the board's
// SRAM.
func FuzzHandle(f *testing.F) {
	v4 := func(cmd uint8, seq uint16, body []byte) []byte {
		return netproto.Packet{Command: cmd, Board: 1, Seq: seq, HasSeq: true, TraceID: 0xC0FFEE, Body: body}.Marshal()
	}
	f.Add(joinFuzzInput(fuzzDatagram{payload: netproto.Packet{Command: netproto.CmdStatus}.Marshal()}))
	chunks := netproto.ChunkImage(leon.DefaultLoadAddr, bytes.Repeat([]byte{0x5A}, 2*netproto.MaxChunkData+16))
	f.Add(joinFuzzInput(
		fuzzDatagram{payload: v4(netproto.CmdLoadProgram, 1, chunks[0].Marshal())},
		fuzzDatagram{payload: v4(netproto.CmdLoadProgram, 2, chunks[1].Marshal())},
		fuzzDatagram{payload: v4(netproto.CmdLoadProgram, 2, chunks[1].Marshal())}, // resent
		fuzzDatagram{fromB: true, payload: v4(netproto.CmdStatus, 2, nil)},
		fuzzDatagram{payload: v4(netproto.CmdLoadProgram, 3, chunks[2].Marshal())},
	))
	f.Add(joinFuzzInput(fuzzDatagram{fromB: true, payload: []byte{'L', 'Q', 9, netproto.CmdStatus, 0, 0}}))
	f.Add(joinFuzzInput(fuzzDatagram{payload: []byte("GET / HTTP/1.0\r\n\r\n")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(NewEmulator(), fpxIP, fpxPort)
		for i, d := range splitFuzzInput(data) {
			src := peerA
			if d.fromB {
				src = peerB
			}
			resp, ok := p.Handle(src, d.payload, tracing.Ctx{})
			if liquid := netproto.IsLiquidPacket(d.payload); ok != liquid {
				t.Fatalf("datagram %d (% x): reply %v for a payload whose Liquid header is %v", i, d.payload, ok, liquid)
			}
			if req, err := netproto.ParsePacket(d.payload); err == nil &&
				(resp.Board != req.Board || resp.Seq != req.Seq || resp.HasSeq != req.HasSeq || resp.TraceID != req.TraceID) {
				t.Fatalf("datagram %d: reply (board %d, seq %d/%v, trace %#x) does not echo the request (board %d, seq %d/%v, trace %#x)",
					i, resp.Board, resp.Seq, resp.HasSeq, resp.TraceID, req.Board, req.Seq, req.HasSeq, req.TraceID)
			}
			if in, out, pass := p.m.framesIn.Value(), p.m.framesOut.Value(), p.m.passedThrough.Value(); in != out+pass {
				t.Fatalf("datagram %d: frames in %d != out %d + passed through %d", i, in, out, pass)
			}
			if n := len(p.dedup.m); n > DedupWindow {
				t.Fatalf("datagram %d: dedup window holds %d exchanges", i, n)
			}
			if p.load != nil && len(p.load.buf) > p.ctrl.SRAMSize() {
				t.Fatalf("datagram %d: a %d-byte reassembly buffer outgrows the %d-byte SRAM", i, len(p.load.buf), p.ctrl.SRAMSize())
			}
		}
	})
}
