package netproto

import (
	"encoding/binary"
	"fmt"
)

// Command codes (§2.6). The paper defines status/load/start/read; the
// liquid extensions add write-memory and reconfigure.
const (
	CmdStatus      uint8 = 0x01 // "to check if LEON has started up"
	CmdLoadProgram uint8 = 0x02 // "to load a program into LEON"
	CmdStartLEON   uint8 = 0x03 // "to instruct LEON to execute the program"
	CmdReadMemory  uint8 = 0x04 // "to read the result"
	CmdWriteMemory uint8 = 0x05
	CmdReconfigure uint8 = 0x06 // swap in a pre-generated architecture image
	CmdGetConfig   uint8 = 0x07 // report the active configuration
	CmdTraceReport uint8 = 0x08 // pull the last run's instrumented trace summary
	CmdStats       uint8 = 0x09 // pull the platform's telemetry snapshot (JSON)
	CmdResult      uint8 = 0x0A // collect the completed run's result (an in-flight run reports live state)
	CmdTraces      uint8 = 0x0C // pull the server-side exchange-trace spans (JSON); 8-byte body selects one trace id
	CmdWaitResult  uint8 = 0x0D // long-poll result: the server holds the exchange (bounded) and answers the instant the run completes

	// The non-blocking reconfigure protocol: CmdReconfigure acks
	// immediately with a ticket state packed in the RunReport spare
	// fields (see ReconfigAckReport); these two commands observe the
	// in-flight synthesis.
	CmdReconfigStatus uint8 = 0x0E // poll the board's reconfiguration ticket (ReconfigStatusResp)
	CmdWaitReconfig   uint8 = 0x0F // long-poll reconfigure: the server holds the exchange (bounded) and answers when the swap lands

	// RespFlag marks a response to the command in the low bits.
	RespFlag uint8 = 0x80

	// CmdError is the response command for failures; the body is an
	// ErrorResp whose Code holds the original command.
	CmdError uint8 = 0xFF
)

// CommandName returns the short label used for per-command telemetry
// (the response flag, if set, is ignored).
func CommandName(cmd uint8) string {
	switch cmd &^ RespFlag {
	case CmdStatus:
		return "status"
	case CmdLoadProgram:
		return "load"
	case CmdStartLEON:
		return "start"
	case CmdReadMemory:
		return "readmem"
	case CmdWriteMemory:
		return "writemem"
	case CmdReconfigure:
		return "reconfigure"
	case CmdGetConfig:
		return "getconfig"
	case CmdTraceReport:
		return "trace"
	case CmdStats:
		return "stats"
	case CmdResult:
		return "result"
	case CmdTraces:
		return "traces"
	case CmdWaitResult:
		return "wait"
	case CmdReconfigStatus:
		return "reconfigstatus"
	case CmdWaitReconfig:
		return "waitreconfig"
	default:
		if cmd == CmdError {
			return "error"
		}
		return "unknown"
	}
}

// Response status codes.
const (
	StatusOK      uint8 = 0
	StatusError   uint8 = 1
	StatusFault   uint8 = 2 // program ended via a trap
	StatusPending uint8 = 3 // more load chunks expected
	StatusRunning uint8 = 4 // run in flight (async start acked / result not yet final)
)

// Magic and version identify Liquid control packets so the CPP can
// route them (other traffic passes through the wrappers untouched).
var Magic = [2]byte{'L', 'Q'}

// Version is the paper's control packet header: magic(2) + version(1)
// + command(1). It has no board byte and no exchange seq, so it always
// addresses board 0 and bypasses the dedup window; a node answers it
// in the same shape.
const Version uint8 = 1

// VersionTrace is the current header: magic(2) + version(1) +
// command(1) + board(1) + seq(2) + traceid(8). The 16-bit seq names
// one request/response exchange: the client stamps each new request
// with a fresh seq (retransmissions reuse it), the platform echoes it,
// the client discards responses for any other seq, and the server's
// dedup window re-acks retransmissions instead of re-applying them.
// The 64-bit trace id names the end-to-end exchange trace the packet
// belongs to; 0 means untraced (the server then assigns its own id
// when tracing is enabled). Responses echo the request's header.
const VersionTrace uint8 = 4

// headerLen is the v1 header: magic(2) + version(1) + command(1).
const headerLen = 4

// traceHeaderLen is the v4 header: the v1 fields plus board(1) +
// seq(2) + traceid(8).
const traceHeaderLen = headerLen + 11

// Packet is one control packet: a command code, the destination board
// on a multi-board node, the exchange sequence number and trace id,
// and the body.
type Packet struct {
	Command uint8
	Board   uint8
	// Seq is the exchange sequence number; valid only when HasSeq is
	// set. Responses echo the request's seq.
	Seq    uint16
	HasSeq bool
	// TraceID is the exchange-trace id (0 = untraced). Responses echo
	// the request's trace id.
	TraceID uint64
	Body    []byte
}

// Marshal produces the UDP payload for the packet: the v4 header when
// the packet carries a seq, a board other than 0 or a trace id, and
// otherwise the paper's v1 header.
func (p Packet) Marshal() []byte {
	return append(p.appendHeader(make([]byte, 0, traceHeaderLen+len(p.Body))), p.Body...)
}

// appendHeader appends the packet's header, v4 or v1 as Marshal
// chooses, to b.
func (p Packet) appendHeader(b []byte) []byte {
	if !p.HasSeq && p.Board == 0 && p.TraceID == 0 {
		return append(b, Magic[0], Magic[1], Version, p.Command)
	}
	b = append(b, Magic[0], Magic[1], VersionTrace, p.Command, p.Board)
	b = binary.BigEndian.AppendUint16(b, p.Seq)
	return binary.BigEndian.AppendUint64(b, p.TraceID)
}

// ParsePacket validates the header and returns the command, board,
// sequence number, trace id and body. Exactly two headers are
// accepted: v1 (implicit board 0, no seq) and v4.
func ParsePacket(b []byte) (Packet, error) {
	if len(b) < headerLen {
		return Packet{}, fmt.Errorf("netproto: control packet truncated (%d bytes)", len(b))
	}
	if b[0] != Magic[0] || b[1] != Magic[1] {
		return Packet{}, fmt.Errorf("netproto: bad magic %#02x%02x", b[0], b[1])
	}
	switch b[2] {
	case Version:
		return Packet{Command: b[3], Body: b[headerLen:]}, nil
	case VersionTrace:
		if len(b) < traceHeaderLen {
			return Packet{}, fmt.Errorf("netproto: v4 control packet truncated (%d bytes)", len(b))
		}
		return Packet{
			Command: b[3],
			Board:   b[4],
			Seq:     binary.BigEndian.Uint16(b[5:]),
			HasSeq:  true,
			TraceID: binary.BigEndian.Uint64(b[7:]),
			Body:    b[traceHeaderLen:],
		}, nil
	default:
		return Packet{}, fmt.Errorf("netproto: unsupported version %d", b[2])
	}
}

// IsLiquidPacket reports whether a UDP payload carries the control
// magic — the test the Control Packet Processor uses to route traffic
// to the LEON controller versus passing it through.
func IsLiquidPacket(b []byte) bool {
	return len(b) >= headerLen && b[0] == Magic[0] && b[1] == Magic[1]
}

// LoadChunk is one piece of a (possibly multi-packet) program load.
// The paper's payload carries a packet sequence number, the memory
// address where the program is loaded, and the data; UDP does not
// guarantee order, so the receiver reassembles by sequence number.
type LoadChunk struct {
	Seq      uint16 // 0-based chunk index
	Total    uint16 // number of chunks in this load
	Addr     uint32 // load address of the WHOLE image
	TotalLen uint32 // total image length in bytes
	Offset   uint32 // byte offset of this chunk within the image
	Data     []byte
}

// loadChunkHeaderLen is the fixed part of a LoadChunk body.
const loadChunkHeaderLen = 2 + 2 + 4 + 4 + 4

// ethernetMTU is the largest IPv4 packet one Ethernet frame carries,
// the bound the FPX's frames meet on the wire.
const ethernetMTU = 1500

// chunkLineBytes is the granule a chunk's data is cut in: one 32-byte
// cache line of the board's caches.
const chunkLineBytes = 32

// MaxChunkData is the largest chunk payload: the most whole 32-byte
// lines whose v4 load datagram, wrapped in the FPX's IPv4/UDP frame,
// still fits one Ethernet MTU (1500 − 20 − 8 − 15 − 16 = 1441 bytes,
// rounded down to 1440). A v1 datagram, whose header is shorter, fits
// too. Every chunk of a load but the last is this size, so a load costs
// as few datagrams, and as few acks, as one frame per chunk allows.
const MaxChunkData = (ethernetMTU - IPv4HeaderLen - UDPHeaderLen - traceHeaderLen - loadChunkHeaderLen) / chunkLineBytes * chunkLineBytes

// Marshal encodes the chunk body.
func (c LoadChunk) Marshal() []byte {
	return c.appendBody(make([]byte, 0, loadChunkHeaderLen+len(c.Data)))
}

// MarshalPacket encodes the datagram of p carrying the chunk as its
// body — the bytes of p with Body set to c.Marshal() — in one buffer,
// with no intermediate body. p.Body is ignored.
func (c LoadChunk) MarshalPacket(p Packet) []byte {
	return c.appendBody(p.appendHeader(make([]byte, 0, traceHeaderLen+loadChunkHeaderLen+len(c.Data))))
}

// appendBody appends the chunk's body encoding to b.
func (c LoadChunk) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, c.Seq)
	b = binary.BigEndian.AppendUint16(b, c.Total)
	b = binary.BigEndian.AppendUint32(b, c.Addr)
	b = binary.BigEndian.AppendUint32(b, c.TotalLen)
	b = binary.BigEndian.AppendUint32(b, c.Offset)
	return append(b, c.Data...)
}

// ParseLoadChunk decodes a chunk body.
func ParseLoadChunk(b []byte) (LoadChunk, error) {
	var c LoadChunk
	if len(b) < loadChunkHeaderLen {
		return c, fmt.Errorf("netproto: load chunk truncated (%d bytes)", len(b))
	}
	c.Seq = binary.BigEndian.Uint16(b[0:])
	c.Total = binary.BigEndian.Uint16(b[2:])
	c.Addr = binary.BigEndian.Uint32(b[4:])
	c.TotalLen = binary.BigEndian.Uint32(b[8:])
	c.Offset = binary.BigEndian.Uint32(b[12:])
	c.Data = b[loadChunkHeaderLen:]
	if c.Total == 0 {
		return c, fmt.Errorf("netproto: load chunk with zero total")
	}
	if c.Seq >= c.Total {
		return c, fmt.Errorf("netproto: chunk seq %d out of range (total %d)", c.Seq, c.Total)
	}
	if uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.TotalLen) {
		return c, fmt.Errorf("netproto: chunk [%d,+%d) exceeds image length %d", c.Offset, len(c.Data), c.TotalLen)
	}
	// The receiver allocates TotalLen bytes on an image's first chunk;
	// no image split by ChunkImage is longer than its chunks can carry.
	if uint64(c.TotalLen) > uint64(c.Total)*MaxChunkData {
		return c, fmt.Errorf("netproto: image length %d exceeds %d chunks of %d bytes", c.TotalLen, c.Total, MaxChunkData)
	}
	return c, nil
}

// ChunkImage splits an image into load chunks of at most MaxChunkData
// bytes each.
func ChunkImage(addr uint32, image []byte) []LoadChunk {
	n := (len(image) + MaxChunkData - 1) / MaxChunkData
	if n == 0 {
		n = 1
	}
	chunks := make([]LoadChunk, 0, n)
	for i := 0; i < n; i++ {
		lo := i * MaxChunkData
		hi := lo + MaxChunkData
		if hi > len(image) {
			hi = len(image)
		}
		chunks = append(chunks, LoadChunk{
			Seq:      uint16(i),
			Total:    uint16(n),
			Addr:     addr,
			TotalLen: uint32(len(image)),
			Offset:   uint32(lo),
			Data:     image[lo:hi],
		})
	}
	return chunks
}

// Load acks reuse the RunReport body (the paper's v1 clients parse it
// unchanged) and carry reassembly progress
// in the report's otherwise-unused numeric fields: Cycles holds the
// count of distinct chunks received so far and Instructions holds the
// next missing sequence number (== Total once the image is complete).
// A client that was interrupted mid-load reads NextSeq off the first
// re-acked duplicate and resumes from there instead of restarting.

// LoadAckReport builds a load-chunk acknowledgement carrying progress.
func LoadAckReport(status uint8, received, nextSeq int) RunReport {
	return RunReport{
		Status:       status,
		Cycles:       uint64(received),
		Instructions: uint64(nextSeq),
	}
}

// LoadAckProgress extracts (received, nextSeq) from a load ack.
func LoadAckProgress(rep RunReport) (received, nextSeq int) {
	return int(rep.Cycles), int(rep.Instructions)
}

// StartReq asks the LEON controller to execute the loaded program.
type StartReq struct {
	Entry     uint32 // 0 means "address of the last load"
	MaxCycles uint64 // 0 means the controller default
}

// Marshal encodes the request body.
func (r StartReq) Marshal() []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b[0:], r.Entry)
	binary.BigEndian.PutUint64(b[4:], r.MaxCycles)
	return b
}

// ParseStartReq decodes the body.
func ParseStartReq(b []byte) (StartReq, error) {
	if len(b) < 12 {
		return StartReq{}, fmt.Errorf("netproto: start request truncated")
	}
	return StartReq{
		Entry:     binary.BigEndian.Uint32(b[0:]),
		MaxCycles: binary.BigEndian.Uint64(b[4:]),
	}, nil
}

// RunReport carries the cycle counter and fault mailbox after a run —
// the response to StartLEON and part of Status.
type RunReport struct {
	Status       uint8
	Cycles       uint64
	Instructions uint64
	TT           uint8
	FaultPC      uint32
}

// Marshal encodes the report.
func (r RunReport) Marshal() []byte {
	b := make([]byte, 22)
	b[0] = r.Status
	binary.BigEndian.PutUint64(b[1:], r.Cycles)
	binary.BigEndian.PutUint64(b[9:], r.Instructions)
	b[17] = r.TT
	binary.BigEndian.PutUint32(b[18:], r.FaultPC)
	return b
}

// ParseRunReport decodes the report.
func ParseRunReport(b []byte) (RunReport, error) {
	if len(b) < 22 {
		return RunReport{}, fmt.Errorf("netproto: run report truncated")
	}
	return RunReport{
		Status:       b[0],
		Cycles:       binary.BigEndian.Uint64(b[1:]),
		Instructions: binary.BigEndian.Uint64(b[9:]),
		TT:           b[17],
		FaultPC:      binary.BigEndian.Uint32(b[18:]),
	}, nil
}

// WaitResultReq is the body of CmdWaitResult, the server-held result
// wait of the pipelined control plane: instead of polling CmdResult
// every couple of milliseconds, the client asks the server to hold the
// exchange open for up to HoldMs milliseconds and answer — with the
// same RunReport body CmdResult uses — the instant the board's run
// completes. A server whose board is not running, whose hold budget
// expires, or whose waiter table is full answers immediately
// (StatusRunning while in flight), and the client asks again. HoldMs
// 0 means "answer immediately" (equivalent to CmdResult).
// CmdWaitReconfig, the held reconfiguration wait, carries the same body.
type WaitResultReq struct {
	HoldMs uint32
}

// Marshal encodes the request body.
func (r WaitResultReq) Marshal() []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, r.HoldMs)
	return b
}

// ParseWaitResultReq decodes the body. An empty body means HoldMs 0 —
// answer immediately — so a bare CmdWaitResult behaves like CmdResult.
func ParseWaitResultReq(b []byte) (WaitResultReq, error) {
	if len(b) == 0 {
		return WaitResultReq{}, nil
	}
	if len(b) < 4 {
		return WaitResultReq{}, fmt.Errorf("netproto: wait-result request truncated (%d bytes)", len(b))
	}
	return WaitResultReq{HoldMs: binary.BigEndian.Uint32(b)}, nil
}

// MemReq addresses a memory read or write ("Memory address (4B) where
// the result is expected").
type MemReq struct {
	Addr   uint32
	Length uint32 // reads only
	Data   []byte // writes only
}

// Marshal encodes the request body.
func (r MemReq) Marshal() []byte {
	b := make([]byte, 8+len(r.Data))
	binary.BigEndian.PutUint32(b[0:], r.Addr)
	binary.BigEndian.PutUint32(b[4:], r.Length)
	copy(b[8:], r.Data)
	return b
}

// ParseMemReq decodes the body.
func ParseMemReq(b []byte) (MemReq, error) {
	if len(b) < 8 {
		return MemReq{}, fmt.Errorf("netproto: memory request truncated")
	}
	return MemReq{
		Addr:   binary.BigEndian.Uint32(b[0:]),
		Length: binary.BigEndian.Uint32(b[4:]),
		Data:   b[8:],
	}, nil
}

// MemResp carries read-back memory.
type MemResp struct {
	Status uint8
	Addr   uint32
	Data   []byte
}

// Marshal encodes the response body.
func (r MemResp) Marshal() []byte {
	b := make([]byte, 5+len(r.Data))
	b[0] = r.Status
	binary.BigEndian.PutUint32(b[1:], r.Addr)
	copy(b[5:], r.Data)
	return b
}

// ParseMemResp decodes the body.
func ParseMemResp(b []byte) (MemResp, error) {
	if len(b) < 5 {
		return MemResp{}, fmt.Errorf("netproto: memory response truncated")
	}
	return MemResp{Status: b[0], Addr: binary.BigEndian.Uint32(b[1:]), Data: b[5:]}, nil
}

// StatusResp answers CmdStatus: controller state, the live hardware
// cycle counter (so a polling client can watch an in-flight run
// advance, §3.1), and the last completed run.
type StatusResp struct {
	State      uint8 // leon.State
	BootOK     bool
	LoadedAddr uint32 // address of the last completed load (0 if none)
	CurCycles  uint64 // current run-relative cycle counter (live while running)
	Last       RunReport
}

// statusRespHeadLen is the fixed head ahead of the embedded RunReport.
const statusRespHeadLen = 14

// Marshal encodes the response body.
func (r StatusResp) Marshal() []byte {
	b := make([]byte, statusRespHeadLen)
	b[0] = r.State
	if r.BootOK {
		b[1] = 1
	}
	binary.BigEndian.PutUint32(b[2:], r.LoadedAddr)
	binary.BigEndian.PutUint64(b[6:], r.CurCycles)
	return append(b, r.Last.Marshal()...)
}

// ParseStatusResp decodes the body.
func ParseStatusResp(b []byte) (StatusResp, error) {
	if len(b) < statusRespHeadLen+22 {
		return StatusResp{}, fmt.Errorf("netproto: status response truncated")
	}
	last, err := ParseRunReport(b[statusRespHeadLen:])
	if err != nil {
		return StatusResp{}, err
	}
	return StatusResp{
		State:      b[0],
		BootOK:     b[1] != 0,
		LoadedAddr: binary.BigEndian.Uint32(b[2:]),
		CurCycles:  binary.BigEndian.Uint64(b[6:]),
		Last:       last,
	}, nil
}

// ErrorResp reports a failure with a human-readable message (the
// paper's hardware transmits "an output IP packet containing an error
// message", §4.1).
type ErrorResp struct {
	Code uint8
	Msg  string
}

// Marshal encodes the response body.
func (r ErrorResp) Marshal() []byte {
	return append([]byte{r.Code}, r.Msg...)
}

// ParseErrorResp decodes the body.
func ParseErrorResp(b []byte) (ErrorResp, error) {
	if len(b) < 1 {
		return ErrorResp{}, fmt.Errorf("netproto: error response truncated")
	}
	return ErrorResp{Code: b[0], Msg: string(b[1:])}, nil
}

// TracesReq selects which server-side exchange traces CmdTraces
// returns: an 8-byte big-endian trace id picks one trace (force-
// completing it if still active); an empty body asks for every
// completed trace in the ring.
type TracesReq struct {
	TraceID uint64 // 0 = all completed traces
}

// Marshal encodes the request body.
func (r TracesReq) Marshal() []byte {
	if r.TraceID == 0 {
		return nil
	}
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, r.TraceID)
	return b
}

// ParseTracesReq decodes the body.
func ParseTracesReq(b []byte) (TracesReq, error) {
	switch {
	case len(b) == 0:
		return TracesReq{}, nil
	case len(b) >= 8:
		return TracesReq{TraceID: binary.BigEndian.Uint64(b)}, nil
	default:
		return TracesReq{}, fmt.Errorf("netproto: traces request truncated (%d bytes)", len(b))
	}
}

// TracesResp carries exchange-trace spans rendered as JSON (a
// tracing.TraceData array). The payload is capped by the producer so
// the response stays inside one UDP datagram.
type TracesResp struct {
	Status uint8
	JSON   []byte
}

// MaxTracesJSON bounds the JSON payload of one traces response; a
// producer with more data truncates to whole traces under this limit.
const MaxTracesJSON = 48 * 1024

// Marshal encodes the response body.
func (r TracesResp) Marshal() []byte {
	return append([]byte{r.Status}, r.JSON...)
}

// ParseTracesResp decodes the body.
func ParseTracesResp(b []byte) (TracesResp, error) {
	if len(b) < 1 {
		return TracesResp{}, fmt.Errorf("netproto: traces response truncated")
	}
	return TracesResp{Status: b[0], JSON: b[1:]}, nil
}
