package netproto

import (
	"bytes"
	"testing"
)

// The native fuzz targets complement TestParsersNeverPanic with
// round-trip invariants: whatever a parser accepts must re-marshal to
// something the parser accepts again, with identical semantics. Seed
// inputs covering the v1/v4 headers and the CmdResult/CmdStartLEON
// body codecs live in testdata/fuzz; `go test -fuzz` grows them.

// FuzzParsePacket covers the two header generations: v1 (the paper's
// packet, implicit board 0) and v4 (board + seq + trace id).
func FuzzParsePacket(f *testing.F) {
	f.Add(Packet{Command: CmdStatus}.Marshal())
	f.Add(Packet{Command: CmdResult, Board: 3, Seq: 1, HasSeq: true}.Marshal())
	f.Add(Packet{Command: CmdStartLEON, Board: 2, Seq: 0xBEEF, HasSeq: true, Body: []byte{1, 2, 3}}.Marshal())
	f.Add(Packet{Command: CmdError, Seq: 1, HasSeq: true, Body: ErrorResp{Code: CmdStatus, Msg: "x"}.Marshal()}.Marshal())
	f.Add(Packet{Command: CmdStartLEON, Board: 1, Seq: 7, HasSeq: true,
		TraceID: 0x0123456789ABCDEF, Body: []byte{9}}.Marshal())
	f.Add(Packet{Command: CmdTraces, HasSeq: true, TraceID: 1,
		Body: TracesReq{TraceID: 42}.Marshal()}.Marshal())
	f.Add([]byte{'L', 'Q', 9, 9})             // unsupported version
	f.Add([]byte{'L', 'Q', 3, 1, 0, 0, 7})    // retired v3 header
	f.Add([]byte{'L', 'Q', 4, 1, 0, 0, 0, 0}) // v4 header truncated
	f.Add([]byte("not a packet"))             // bad magic
	f.Fuzz(func(t *testing.T, raw []byte) {
		pkt, err := ParsePacket(raw)
		if err != nil {
			return
		}
		// Accepted: the header fields must survive a marshal/parse
		// round trip bit-identically.
		again, err := ParsePacket(pkt.Marshal())
		if err != nil {
			t.Fatalf("re-parse of marshalled packet failed: %v (pkt %+v)", err, pkt)
		}
		if again.Command != pkt.Command || again.Board != pkt.Board ||
			again.HasSeq != pkt.HasSeq || again.Seq != pkt.Seq ||
			again.TraceID != pkt.TraceID || !bytes.Equal(again.Body, pkt.Body) {
			t.Fatalf("round trip diverged: %+v → %+v", pkt, again)
		}
		// Exactly two generations: v1 carries no board, seq or trace;
		// v4 always carries a seq.
		switch raw[2] {
		case Version:
			if pkt.Board != 0 || pkt.HasSeq || pkt.TraceID != 0 {
				t.Fatalf("v1 packet parsed with v4 fields: %+v", pkt)
			}
		case VersionTrace:
			if !pkt.HasSeq {
				t.Fatalf("v4 packet parsed without a seq: %+v", pkt)
			}
		default:
			t.Fatalf("ParsePacket accepted header version %d", raw[2])
		}
		if !IsLiquidPacket(raw) {
			t.Fatalf("ParsePacket accepted a payload IsLiquidPacket rejects")
		}
	})
}

// FuzzParseLoadChunk checks the reassembly invariants the load path
// depends on: in-range sequence numbers and in-bounds chunk extents.
func FuzzParseLoadChunk(f *testing.F) {
	for _, c := range ChunkImage(0x40001000, bytes.Repeat([]byte{7}, MaxChunkData+100)) {
		f.Add(c.Marshal())
	}
	f.Add(LoadChunk{Seq: 0, Total: 1, TotalLen: 0}.Marshal())
	f.Add(LoadChunk{Seq: 0, Total: 2, TotalLen: 0xF0000000}.Marshal()) // forged length
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := ParseLoadChunk(raw)
		if err != nil {
			return
		}
		if c.Total == 0 || c.Seq >= c.Total {
			t.Fatalf("accepted chunk with seq %d / total %d", c.Seq, c.Total)
		}
		if uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.TotalLen) {
			t.Fatalf("accepted chunk overrunning its image: [%d,+%d) > %d", c.Offset, len(c.Data), c.TotalLen)
		}
		if uint64(c.TotalLen) > uint64(c.Total)*MaxChunkData {
			t.Fatalf("accepted image length %d beyond %d chunks", c.TotalLen, c.Total)
		}
		again, err := ParseLoadChunk(c.Marshal())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Seq != c.Seq || again.Total != c.Total || again.Addr != c.Addr ||
			again.TotalLen != c.TotalLen || again.Offset != c.Offset || !bytes.Equal(again.Data, c.Data) {
			t.Fatalf("round trip diverged: %+v → %+v", c, again)
		}
	})
}

// FuzzParseRunReport covers the CmdResult / CmdWaitResult response body
// (and the load-ack progress encoding that rides in it).
func FuzzParseRunReport(f *testing.F) {
	f.Add(RunReport{Status: StatusOK, Cycles: 123456, Instructions: 99}.Marshal())
	f.Add(RunReport{Status: StatusFault, TT: 0x2B, FaultPC: 0x40001234}.Marshal())
	f.Add(LoadAckReport(StatusPending, 3, 3).Marshal())
	f.Add(make([]byte, 21)) // one byte short
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := ParseRunReport(raw)
		if err != nil {
			return
		}
		again, err := ParseRunReport(rep.Marshal())
		if err != nil || again != rep {
			t.Fatalf("round trip diverged: %+v → %+v (%v)", rep, again, err)
		}
		// The load-ack progress codec is a lossless view of the report.
		recv, next := LoadAckProgress(rep)
		if recv >= 0 && next >= 0 {
			ack := LoadAckReport(rep.Status, recv, next)
			if ack.Cycles != rep.Cycles || ack.Instructions != rep.Instructions {
				t.Fatalf("load-ack codec lossy: %+v → (%d,%d) → %+v", rep, recv, next, ack)
			}
		}
	})
}

// FuzzParseStartReq covers the CmdStartLEON request body.
func FuzzParseStartReq(f *testing.F) {
	f.Add(StartReq{Entry: 0x40001000, MaxCycles: 1 << 40}.Marshal())
	f.Add(StartReq{}.Marshal())
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := ParseStartReq(raw)
		if err != nil {
			return
		}
		again, err := ParseStartReq(r.Marshal())
		if err != nil || again != r {
			t.Fatalf("round trip diverged: %+v → %+v (%v)", r, again, err)
		}
	})
}

// FuzzParseStatusResp covers the CmdStatus response body with its
// embedded RunReport.
func FuzzParseStatusResp(f *testing.F) {
	f.Add(StatusResp{State: 2, BootOK: true, LoadedAddr: 0x40001000, CurCycles: 42,
		Last: RunReport{Status: StatusOK, Cycles: 7}}.Marshal())
	f.Add(StatusResp{}.Marshal())
	f.Add(make([]byte, 35)) // one byte short of head+report
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := ParseStatusResp(raw)
		if err != nil {
			return
		}
		again, err := ParseStatusResp(r.Marshal())
		if err != nil || again != r {
			t.Fatalf("round trip diverged: %+v → %+v (%v)", r, again, err)
		}
	})
}
