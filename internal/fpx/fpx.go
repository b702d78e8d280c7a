// Package fpx models the FPX side of Fig. 3: the Control Packet
// Processor (CPP) that routes LEON command packets to the LEON
// controller and answers each with one reply, and, over it, the layered
// Internet protocol wrappers and packet generator that parse and
// format raw IPv4/UDP frames for the NID switch of Fig. 2. A node
// behind a host UDP socket hands each datagram to the CPP directly
// (Platform.Handle); the wrappers serve frame traffic (HandleFrame). It
// also provides the hardware Emulator the paper's control software used
// for debugging before the bitfile existed.
package fpx

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"

	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/metrics/eventlog"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// LEONControl is what the CPP needs from the LEON controller; it is
// satisfied by *leon.AsyncController and by the Emulator. The §3.1
// handoff is asynchronous: StartCtx writes the entry address and
// returns as soon as the processor acknowledges, State and Cycles are
// poll-safe while the run is in flight, and CollectResult blocks until
// the run completes. StartCtx takes the exchange's trace context, so
// the run's spans nest under the trace that started it (a disabled
// context records none). SetRunDoneHook installs the board's wake: fn
// is invoked every time a run completes, and, on a controller that also
// owns the board's reconfiguration (core's), every time a pending
// reconfiguration's synthesis finishes. A call means "look again", not
// "a run ended"; fn may run on more than one goroutine and must not
// block. A server mounted on the platform releases its held waits on
// it. SRAMSize is the board's SRAM capacity, which bounds a load before
// its first chunk sizes a buffer.
type LEONControl interface {
	State() leon.State
	SRAMSize() int
	LoadProgram(addr uint32, image []byte) error
	StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error
	Cycles() uint64
	CollectResult() (leon.RunResult, error)
	ReadMemory(addr uint32, n int) ([]byte, error)
	WriteMemory(addr uint32, p []byte) error
	LastResult() leon.RunResult
	SetRunDoneHook(fn func())
}

// MaxReadLength caps a single Read Memory response.
const MaxReadLength = 64 << 10

// platformMetrics are the platform's registry instruments.
type platformMetrics struct {
	framesIn      *metrics.Counter
	framesOut     *metrics.Counter
	badFrames     *metrics.Counter
	passedThrough *metrics.Counter
	commands      *metrics.CounterVec
	protoErrors   *metrics.CounterVec
	chunks        *metrics.Counter
	chunksOOO     *metrics.Counter
	chunksApplied *metrics.Counter
	chunksDup     *metrics.Counter
	loadsDone     *metrics.Counter
	dupSuppressed *metrics.Counter
}

func newPlatformMetrics(r *metrics.Registry) platformMetrics {
	return platformMetrics{
		framesIn:      r.Counter("liquid_fpx_frames_in_total", "Datagram payloads the CPP took."),
		framesOut:     r.Counter("liquid_fpx_frames_out_total", "Replies the packet generator built (one per Liquid payload)."),
		badFrames:     r.Counter("liquid_fpx_frames_bad_total", "Frames the IPv4/UDP wrappers rejected (checksum, truncation)."),
		passedThrough: r.Counter("liquid_fpx_frames_passthrough_total", "Non-Liquid traffic passed through untouched."),
		commands:      r.CounterVec("liquid_fpx_commands_total", "Control commands dispatched by the CPP.", "cmd"),
		protoErrors:   r.CounterVec("liquid_fpx_protocol_errors_total", "Commands answered with CmdError.", "cmd"),
		chunks:        r.Counter("liquid_fpx_load_chunks_total", "Program-load chunks received."),
		chunksOOO:     r.Counter("liquid_fpx_load_chunks_out_of_order_total", "Load chunks that arrived out of sequence order."),
		chunksApplied: r.Counter("liquid_fpx_load_chunks_applied_total", "First-time load chunks copied into the reassembly buffer."),
		chunksDup:     r.Counter("liquid_fpx_load_chunks_dup_total", "Retransmitted load chunks re-acked without re-applying."),
		loadsDone:     r.Counter("liquid_fpx_loads_completed_total", "Fully reassembled program loads handed to leon_ctrl."),
		dupSuppressed: r.Counter("liquid_fpx_dup_requests_total", "Retransmitted exchanges answered from the dedup window (re-acked, never re-applied)."),
	}
}

// Platform is one FPX node hosting the Liquid processor.
type Platform struct {
	ctrl LEONControl

	// IP and Port identify the node; the packet generator swaps them
	// into response frames.
	IP   [4]byte
	Port uint16

	// ReconfigAsyncFn, when set, implements the non-blocking
	// CmdReconfigure (wired up by the core liquid system, which can
	// rebuild the SoC). It receives the exchange's trace context and
	// returns the ticket status the ack compresses into RunReport spare
	// fields instead of holding the board through synthesis.
	ReconfigAsyncFn func(tc tracing.Ctx, spec []byte) (netproto.ReconfigStatusResp, error)
	// ReconfigStatusFn answers CmdReconfigStatus and CmdWaitReconfig.
	// Calling it also pumps: a synthesis that completed while the board
	// was busy is swapped in here. The swap itself runs on the board's
	// actor; the protocol state a full swap resets (SetControl) belongs
	// to the dispatching goroutine, the board worker when a server
	// mounts this platform.
	ReconfigStatusFn func() netproto.ReconfigStatusResp
	// ConfigFn, when set, implements CmdGetConfig.
	ConfigFn func() []byte
	// TraceFn, when set, implements CmdTraceReport — the paper's
	// "streaming of instrumented traces to the Trace Analyzer" over
	// the network, summarized.
	TraceFn func() ([]byte, error)

	// DedupDisabled skips the at-most-once dedup window entirely — a
	// deliberate protocol-bug knob so the model-based simulation
	// tests can prove that a missing dedup re-ack is caught.
	DedupDisabled bool

	load       *loadState
	loadedAddr uint32
	dedup      *dedupCache

	reg    *metrics.Registry
	events *eventlog.Log
	m      platformMetrics

	// tracer, when non-nil, is the collector CmdTraces answers from and
	// in which a CmdError reply finishes its exchange's trace.
	tracer *tracing.Collector
	// flight, when non-nil, dumps the recent traces + eventlog tail
	// whenever this platform answers with CmdError.
	flight *tracing.FlightRecorder
	// spanAttrs caches the handle-span annotations of board spanBoard
	// (see handleAttrs).
	spanAttrs *[numOutcomes][]tracing.Attr
	spanBoard uint8
}

type loadState struct {
	addr     uint32
	total    uint16
	buf      []byte
	received []bool
	count    int
}

// New builds a platform around a LEON controller. The platform owns
// the node's telemetry: one metrics.Registry and one structured event
// log shared by every layer serving this node (core system, server).
func New(ctrl LEONControl, ip [4]byte, port uint16) *Platform {
	reg := metrics.NewRegistry()
	reg.Info("liquid_build_info",
		"Build and protocol identity of this node (constant 1).",
		metrics.Label{Key: "go_version", Value: runtime.Version()},
		metrics.Label{Key: "protocol", Value: strconv.Itoa(int(netproto.VersionTrace))},
	)
	return &Platform{
		ctrl:   ctrl,
		IP:     ip,
		Port:   port,
		dedup:  newDedupCache(),
		reg:    reg,
		events: eventlog.New(256),
		m:      newPlatformMetrics(reg),
	}
}

// Metrics returns the node's telemetry registry. Layers above and
// below (server, core) register their instruments here so one snapshot
// covers the whole node.
func (p *Platform) Metrics() *metrics.Registry { return p.reg }

// Events returns the node's structured event log.
func (p *Platform) Events() *eventlog.Log { return p.events }

// EnableTracing attaches the node's span collector: CmdTraces answers
// from it, and a CmdError reply finishes its exchange's trace in it
// before a flight dump. The platform resolves and mints no traces; the
// handle spans are recorded under the trace its caller passes to
// Handle. A multi-board node passes the same collector to all its
// platforms so the node exports one merged timeline.
func (p *Platform) EnableTracing(col *tracing.Collector) { p.tracer = col }

// SetFlightRecorder attaches the crash-dump flight recorder: whenever
// this platform answers with CmdError, the recorder dumps the recent
// completed traces plus the eventlog tail to a timestamped file
// (rate-limited).
func (p *Platform) SetFlightRecorder(fr *tracing.FlightRecorder) { p.flight = fr }

// SetControl is the platform's side of a bitfile reload: the rebuilt
// processor comes out of reset behind the same controller, and what
// the platform kept for the old one goes — the load in reassembly, the
// loaded address and the dedup window.
func (p *Platform) SetControl() {
	p.load = nil
	p.loadedAddr = 0
	p.dedup = newDedupCache()
}

// Control returns the LEON controller behind the platform. The
// server's worker uses it to decide whether a CmdWaitResult exchange
// can be parked (the board must be observably running).
func (p *Platform) Control() LEONControl { return p.ctrl }

// SetRunDoneHook installs the board's one wake on the platform's
// controller (see LEONControl). fn must not block.
func (p *Platform) SetRunDoneHook(fn func()) { p.ctrl.SetRunDoneHook(fn) }

// ReconfigInFlight reports whether an asynchronous reconfiguration is
// still non-terminal (false when reconfiguration is not wired) — the
// condition under which the server keeps a CmdWaitReconfig exchange
// parked. It polls through ReconfigStatusFn, so the check itself pumps
// any swap that is ready to land.
func (p *Platform) ReconfigInFlight() bool {
	if p.ReconfigStatusFn == nil {
		return false
	}
	st := p.ReconfigStatusFn()
	return st.State != netproto.ReconfigNone && !st.Terminal()
}

// Peer is a datagram's sender: the IPv4 address and UDP port a reply
// goes back to, and the identity the dedup window keys on.
type Peer struct {
	IP   [4]byte
	Port uint16
}

// String formats the peer as "a.b.c.d:port".
func (p Peer) String() string { return netip.AddrPortFrom(netip.AddrFrom4(p.IP), p.Port).String() }

// HandleFrame is the protocol-wrapper layer of Fig. 3 over Handle: the
// wrappers parse the raw IPv4/UDP frame, traffic for another port
// passes through, the CPP handles the payload, and the packet generator
// formats its reply as a frame addressed back to the sender. Traffic
// that passes through (toward the switch fabric) draws no frame. It
// records no spans.
func (p *Platform) HandleFrame(frame []byte) ([]byte, error) {
	f, err := netproto.ParseFrame(frame)
	if err != nil {
		p.m.badFrames.Inc()
		p.events.Warnf("wrappers rejected frame", "err", err)
		return nil, fmt.Errorf("fpx: wrappers rejected frame: %w", err)
	}
	if f.UDP.DstPort != p.Port {
		p.m.passedThrough.Inc()
		return nil, nil
	}
	reply, ok := p.Handle(Peer{IP: f.IP.Src, Port: f.UDP.SrcPort}, f.Payload, tracing.Ctx{})
	if !ok {
		return nil, nil
	}
	return netproto.BuildFrame(p.IP, f.IP.Src, p.Port, f.UDP.SrcPort, reply.Marshal()), nil
}

// handleSpanNames holds each command's "handle:<cmd>" span name, so
// the handle path builds none per exchange.
var handleSpanNames = func() (names [256]string) {
	for i := range names {
		names[i] = "handle:" + netproto.CommandName(uint8(i))
	}
	return names
}()

// Handle-span outcomes, indexing handleAttrs.
const (
	outcomeOK = iota
	outcomeError
	outcomeDedup
	numOutcomes
)

// handleAttrs returns the handle span's annotations for an exchange on
// board with the given outcome: built when the board id first appears,
// then shared by every span (read-only). Like the dedup window, it is
// owned by the board's single handling goroutine.
func (p *Platform) handleAttrs(board uint8, outcome int) []tracing.Attr {
	if p.spanAttrs == nil || p.spanBoard != board {
		b := tracing.A("board", strconv.Itoa(int(board)))
		p.spanAttrs = &[numOutcomes][]tracing.Attr{
			outcomeOK:    {b, tracing.A("ok", "true")},
			outcomeError: {b, tracing.A("error", "true")},
			outcomeDedup: {b, tracing.A("dedup", "hit")},
		}
		p.spanBoard = board
	}
	return p.spanAttrs[outcome]
}

// Handle is the CPP's one entry: it takes the payload of one datagram
// from src and returns the one reply the packet generator sends back.
// It reports false, with no reply, for a payload that is not a Liquid
// control packet, which passes through.
//
// xc is the exchange's trace as the caller resolved it (the server:
// the id the request carried, or one it assigned); the handle span is
// recorded under it, and a disabled xc records none. Only a
// client-traced exchange hands its context to the run or
// reconfiguration it starts: a server-assigned trace is complete by the
// time that work records anything.
//
// Requests carrying an exchange seq (the v4 header) pass through the
// per-board dedup window: a retransmission of an exchange this board
// already answered — the client's ack was lost or delayed — is
// answered with the cached reply instead of being re-applied, so a
// duplicated start never double-starts and a duplicated write never
// double-writes. Every reply, a re-ack too, echoes the request's
// board, seq and trace id so the client can discard strays.
func (p *Platform) Handle(src Peer, payload []byte, xc tracing.Ctx) (netproto.Packet, bool) {
	p.m.framesIn.Inc()
	if !netproto.IsLiquidPacket(payload) {
		p.m.passedThrough.Inc()
		return netproto.Packet{}, false
	}
	p.m.framesOut.Inc()
	pkt, err := netproto.ParsePacket(payload)
	if err != nil {
		resp := p.errResp(netproto.CmdStatus, err)
		p.flightOnError(xc.TraceID())
		return resp, true
	}
	p.m.commands.With(netproto.CommandName(pkt.Command)).Inc()

	// Open the handle span. CmdTraces itself is never traced: fetching
	// a trace must not grow it.
	var (
		hspan tracing.SpanHandle
		tc    tracing.Ctx
	)
	if xc.On() && pkt.Command != netproto.CmdTraces {
		hspan = xc.Start(handleSpanNames[pkt.Command])
		if pkt.TraceID != 0 {
			tc = hspan.Ctx()
		}
	}

	var (
		resp    netproto.Packet
		key     dedupKey
		outcome = outcomeOK
		hit     bool
	)
	useDedup := pkt.HasSeq && !p.DedupDisabled
	if useDedup {
		key = dedupKey{src: src, cmd: pkt.Command, seq: pkt.Seq}
		resp, hit = p.dedup.lookup(key)
	}
	if hit {
		p.m.dupSuppressed.Inc()
		p.events.Debugf("dedup re-ack", "src", src, "cmd", netproto.CommandName(pkt.Command), "seq", pkt.Seq)
		outcome = outcomeDedup
	} else {
		resp = p.dispatch(pkt, tc)
		if useDedup {
			p.dedup.remember(key, resp)
		}
		if resp.Command == netproto.CmdError {
			outcome = outcomeError
		}
	}
	resp.Board, resp.Seq, resp.HasSeq, resp.TraceID = pkt.Board, pkt.Seq, pkt.HasSeq, pkt.TraceID
	if hspan.On() {
		hspan.EndAttrs(p.handleAttrs(pkt.Board, outcome)...)
	}
	if outcome == outcomeError {
		p.flightOnError(xc.TraceID())
	}
	return resp, true
}

// flightOnError finishes the erroring exchange's trace (so the dump
// contains it) and writes a flight-recorder file. No-op without an
// attached recorder; rate-limited by the recorder itself.
func (p *Platform) flightOnError(traceID uint64) {
	if p.flight == nil {
		return
	}
	if traceID != 0 {
		p.tracer.Finish(traceID)
	}
	if path, err := p.flight.Dump("cmd_error"); err != nil {
		p.events.Warnf("flight dump failed", "err", err)
	} else if path != "" {
		p.events.Infof("flight record dumped", "path", path, "reason", "cmd_error")
	}
}

// dispatch routes one parsed control packet to its handler and returns
// the handler's one reply. tc is the exchange's trace context —
// disabled when tracing is off or the client sent no trace id; only the
// handlers that hand work to lower layers thread it further.
func (p *Platform) dispatch(pkt netproto.Packet, tc tracing.Ctx) netproto.Packet {
	switch pkt.Command {
	case netproto.CmdStatus:
		return p.status()
	case netproto.CmdLoadProgram:
		return p.loadChunk(pkt.Body)
	case netproto.CmdStartLEON:
		return p.start(pkt.Body, tc)
	case netproto.CmdReadMemory:
		return p.readMem(pkt.Body)
	case netproto.CmdWriteMemory:
		return p.writeMem(pkt.Body)
	case netproto.CmdReconfigure:
		return p.reconfigure(pkt.Body, tc)
	case netproto.CmdGetConfig:
		return p.getConfig()
	case netproto.CmdTraceReport:
		return p.traceReport()
	case netproto.CmdStats:
		return p.statsReport()
	case netproto.CmdResult:
		return p.result()
	case netproto.CmdTraces:
		return p.tracesCmd(pkt.Body)
	case netproto.CmdWaitResult:
		return p.waitResult()
	case netproto.CmdReconfigStatus:
		return p.reconfigStatus(netproto.CmdReconfigStatus)
	case netproto.CmdWaitReconfig:
		return p.reconfigStatus(netproto.CmdWaitReconfig)
	default:
		return p.errResp(pkt.Command, fmt.Errorf("unknown command %#02x", pkt.Command))
	}
}

// tracesCmd answers CmdTraces with completed exchange traces as JSON.
// An 8-byte body selects (and force-completes) one trace id; an empty
// body returns the whole completed ring. Oldest traces are dropped
// until the JSON fits a single UDP response.
func (p *Platform) tracesCmd(body []byte) netproto.Packet {
	if p.tracer == nil {
		return p.errResp(netproto.CmdTraces, fmt.Errorf("tracing not enabled on this platform"))
	}
	req, err := netproto.ParseTracesReq(body)
	if err != nil {
		return p.errResp(netproto.CmdTraces, err)
	}
	var tds []tracing.TraceData
	if req.TraceID != 0 {
		tds = p.tracer.TakeTrace(req.TraceID)
	} else {
		tds = p.tracer.Completed()
	}
	if tds == nil {
		tds = []tracing.TraceData{}
	}
	data, err := json.Marshal(tds)
	for err == nil && len(data) > netproto.MaxTracesJSON && len(tds) > 0 {
		tds = tds[1:]
		data, err = json.Marshal(tds)
	}
	if err != nil {
		return p.errResp(netproto.CmdTraces, err)
	}
	return netproto.Packet{
		Command: netproto.CmdTraces | netproto.RespFlag,
		Body:    netproto.TracesResp{Status: netproto.StatusOK, JSON: data}.Marshal(),
	}
}

// errResp formats a CmdError response, counting and logging the
// failure.
func (p *Platform) errResp(cmd uint8, err error) netproto.Packet {
	p.m.protoErrors.With(netproto.CommandName(cmd)).Inc()
	p.events.Warnf("command failed", "cmd", netproto.CommandName(cmd), "err", err)
	return netproto.Packet{
		Command: netproto.CmdError,
		Body:    netproto.ErrorResp{Code: cmd, Msg: err.Error()}.Marshal(),
	}
}

// statsReport answers CmdStats with the node-wide telemetry snapshot as
// JSON — the in-band twin of the HTTP /statusz endpoint, so a fleet
// controller can account for every node over the same UDP control
// channel it already speaks.
func (p *Platform) statsReport() netproto.Packet {
	body, err := json.Marshal(p.reg.Snapshot())
	if err != nil {
		return p.errResp(netproto.CmdStats, err)
	}
	return netproto.Packet{Command: netproto.CmdStats | netproto.RespFlag, Body: body}
}

func (p *Platform) status() netproto.Packet {
	last := p.ctrl.LastResult()
	st := netproto.StatusResp{
		State:      uint8(p.ctrl.State()),
		BootOK:     p.ctrl.State() != leon.StateReset,
		LoadedAddr: p.loadedAddr,
		CurCycles:  p.ctrl.Cycles(),
		Last:       runReport(last),
	}
	return netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag, Body: st.Marshal()}
}

func runReport(r leon.RunResult) netproto.RunReport {
	rep := netproto.RunReport{
		Status:       netproto.StatusOK,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		TT:           r.TT,
		FaultPC:      r.FaultPC,
	}
	if r.Faulted {
		rep.Status = netproto.StatusFault
	}
	return rep
}

// nextGap returns the lowest sequence number not yet received, or the
// total once every chunk is in — the resume point a re-acked duplicate
// advertises to an interrupted client.
func (ls *loadState) nextGap() int {
	for i, got := range ls.received {
		if !got {
			return i
		}
	}
	return int(ls.total)
}

// loadAck formats the progress-carrying acknowledgement for a chunk.
func loadAck(status uint8, ls *loadState) netproto.Packet {
	return netproto.Packet{
		Command: netproto.CmdLoadProgram | netproto.RespFlag,
		Body:    netproto.LoadAckReport(status, ls.count, ls.nextGap()).Marshal(),
	}
}

// loadChunk reassembles multi-packet program loads. UDP does not
// guarantee order, so chunks carry sequence numbers (§2.6); a
// duplicate chunk — a retransmission, or an interrupted client
// restarting its load — is re-acked with the current reassembly
// progress but never re-applied, and a chunk for a different image
// restarts the reassembly. Every ack carries (received, nextSeq) so a
// resuming client can skip the chunks this board already holds. An
// image's first chunk sizes the reassembly buffer from the length it
// claims, so an image that cannot fit the board's SRAM is refused
// before anything is allocated: the bound the controller applies when
// the load completes.
func (p *Platform) loadChunk(body []byte) netproto.Packet {
	c, err := netproto.ParseLoadChunk(body)
	if err != nil {
		return p.errResp(netproto.CmdLoadProgram, err)
	}
	if p.load == nil || p.load.addr != c.Addr || p.load.total != c.Total || len(p.load.buf) != int(c.TotalLen) {
		if err := leon.CheckLoad(c.Addr, uint64(c.TotalLen), p.ctrl.SRAMSize()); err != nil {
			return p.errResp(netproto.CmdLoadProgram, err)
		}
		p.load = &loadState{
			addr:     c.Addr,
			total:    c.Total,
			buf:      make([]byte, c.TotalLen),
			received: make([]bool, c.Total),
		}
	}
	p.m.chunks.Inc()
	ls := p.load
	if ls.received[c.Seq] {
		// Re-ack, never re-apply: the chunk is already in the buffer.
		p.m.chunksDup.Inc()
		p.events.Debugf("duplicate load chunk re-acked", "seq", c.Seq, "next", ls.nextGap())
		return loadAck(netproto.StatusPending, ls)
	}
	// A first-time chunk whose sequence number differs from the number
	// of distinct chunks seen so far was reordered in flight (UDP
	// guarantees neither delivery nor order, §2.6).
	if int(c.Seq) != ls.count {
		p.m.chunksOOO.Inc()
	}
	copy(ls.buf[c.Offset:], c.Data)
	ls.received[c.Seq] = true
	ls.count++
	p.m.chunksApplied.Inc()
	if ls.count < int(ls.total) {
		return loadAck(netproto.StatusPending, ls)
	}
	// Complete: hand to the LEON controller.
	if err := p.ctrl.LoadProgram(ls.addr, ls.buf); err != nil {
		p.load = nil
		return p.errResp(netproto.CmdLoadProgram, err)
	}
	p.loadedAddr = ls.addr
	p.m.loadsDone.Inc()
	p.events.Infof("program load complete", "addr", fmt.Sprintf("%#x", ls.addr), "bytes", len(ls.buf))
	ack := loadAck(netproto.StatusOK, ls)
	p.load = nil
	return ack
}

// start implements the paper's true §3.1 handoff: CmdStartLEON writes
// the entry address and acks immediately with StatusRunning — the
// "Start LEON" acknowledgement — while the run proceeds on the board.
// The client observes completion with a held CmdWaitResult (or, like
// the paper's client, by polling CmdStatus) and the final RunResult
// comes back in the wait's answer or from CmdResult.
func (p *Platform) start(body []byte, tc tracing.Ctx) netproto.Packet {
	entry, maxCycles, err := p.parseStart(body)
	if err != nil {
		return p.errResp(netproto.CmdStartLEON, err)
	}
	// Idempotent under retransmission: if the run is already in flight
	// (the start ack was lost and the UDP client retried), acknowledge
	// again instead of failing with "cannot start in state running".
	if p.ctrl.State() == leon.StateRunning {
		rep := netproto.RunReport{Status: netproto.StatusRunning, Cycles: p.ctrl.Cycles()}
		return netproto.Packet{Command: netproto.CmdStartLEON | netproto.RespFlag, Body: rep.Marshal()}
	}
	if err := p.ctrl.StartCtx(tc, entry, maxCycles); err != nil {
		return p.errResp(netproto.CmdStartLEON, err)
	}
	rep := netproto.RunReport{Status: netproto.StatusRunning, Cycles: p.ctrl.Cycles()}
	return netproto.Packet{Command: netproto.CmdStartLEON | netproto.RespFlag, Body: rep.Marshal()}
}

// parseStart decodes a StartReq body and resolves the entry address
// (0 means "address of the last load"). A cycle budget above the
// controller's default is clamped to it: a start from the wire cannot
// hold the board longer than a default run (0 keeps meaning the
// default).
func (p *Platform) parseStart(body []byte) (entry uint32, maxCycles uint64, err error) {
	req, err := netproto.ParseStartReq(body)
	if err != nil {
		return 0, 0, err
	}
	entry = req.Entry
	if entry == 0 {
		entry = p.loadedAddr
	}
	if entry == 0 {
		return 0, 0, fmt.Errorf("no program loaded")
	}
	return entry, min(req.MaxCycles, leon.DefaultMaxCycles), nil
}

// result answers CmdResult. While the run is still in flight it
// reports StatusRunning with the live cycle counter (the client keeps
// polling — the handler never blocks the board's queue on execution);
// once the run has completed it returns the final RunReport. Repeated
// collects are idempotent, as the §2.6 UDP client may retransmit.
func (p *Platform) result() netproto.Packet {
	return p.resultPacket(netproto.CmdResult)
}

// waitResult answers CmdWaitResult with the same report CmdResult
// produces. The holding itself happens a layer above: the server's
// board worker parks the exchange while the run is in flight and
// replays it through this handler at wake time, so by the time the
// dispatch runs the answer is final (or the hold expired and the
// StatusRunning reply tells the client to ask again). A platform
// driven without a parking server — tests calling Handle directly —
// simply answers immediately, which is the HoldMs=0 behavior.
func (p *Platform) waitResult() netproto.Packet {
	return p.resultPacket(netproto.CmdWaitResult)
}

// resultPacket is the shared CmdResult/CmdWaitResult body: live
// StatusRunning while in flight, the final (idempotent) RunReport
// afterwards.
func (p *Platform) resultPacket(cmd uint8) netproto.Packet {
	if p.ctrl.State() == leon.StateRunning {
		rep := netproto.RunReport{Status: netproto.StatusRunning, Cycles: p.ctrl.Cycles()}
		return netproto.Packet{Command: cmd | netproto.RespFlag, Body: rep.Marshal()}
	}
	res, err := p.ctrl.CollectResult()
	rep := runReport(res)
	if err != nil && !res.Faulted {
		return p.errResp(cmd, err)
	}
	if err != nil {
		rep.Status = netproto.StatusFault
	}
	return netproto.Packet{Command: cmd | netproto.RespFlag, Body: rep.Marshal()}
}

func (p *Platform) readMem(body []byte) netproto.Packet {
	req, err := netproto.ParseMemReq(body)
	if err != nil {
		return p.errResp(netproto.CmdReadMemory, err)
	}
	if req.Length > MaxReadLength {
		return p.errResp(netproto.CmdReadMemory, fmt.Errorf("read length %d exceeds %d", req.Length, MaxReadLength))
	}
	data, err := p.ctrl.ReadMemory(req.Addr, int(req.Length))
	if err != nil {
		return p.errResp(netproto.CmdReadMemory, err)
	}
	resp := netproto.MemResp{Status: netproto.StatusOK, Addr: req.Addr, Data: data}
	return netproto.Packet{Command: netproto.CmdReadMemory | netproto.RespFlag, Body: resp.Marshal()}
}

func (p *Platform) writeMem(body []byte) netproto.Packet {
	req, err := netproto.ParseMemReq(body)
	if err != nil {
		return p.errResp(netproto.CmdWriteMemory, err)
	}
	if err := p.ctrl.WriteMemory(req.Addr, req.Data); err != nil {
		return p.errResp(netproto.CmdWriteMemory, err)
	}
	resp := netproto.MemResp{Status: netproto.StatusOK, Addr: req.Addr}
	return netproto.Packet{Command: netproto.CmdWriteMemory | netproto.RespFlag, Body: resp.Marshal()}
}

func (p *Platform) reconfigure(body []byte, tc tracing.Ctx) netproto.Packet {
	if p.ReconfigAsyncFn == nil {
		return p.errResp(netproto.CmdReconfigure, fmt.Errorf("reconfiguration not wired on this platform"))
	}
	st, err := p.ReconfigAsyncFn(tc, body)
	if err != nil {
		return p.errResp(netproto.CmdReconfigure, err)
	}
	if st.State == netproto.ReconfigApplied {
		// The swap already happened inside the ack (cache hit on an
		// idle board) — a new bitfile clears loaded state. Deferred
		// swaps do NOT clear it: the SRAM/SDRAM are board chips that
		// outlive the bitfile, and a later ack must not clobber loads
		// made while synthesis was still running.
		p.loadedAddr = 0
	}
	return netproto.Packet{
		Command: netproto.CmdReconfigure | netproto.RespFlag,
		Body:    netproto.ReconfigAckReport(st).Marshal(),
	}
}

// reconfigStatus answers CmdReconfigStatus and CmdWaitReconfig. Both
// report (and pump) through ReconfigStatusFn; the hold semantics of
// CmdWaitReconfig live a layer above, in the server's board worker,
// which parks the exchange while the reconfiguration is in flight and
// replays it through this handler at wake time — exactly the
// CmdWaitResult arrangement.
func (p *Platform) reconfigStatus(cmd uint8) netproto.Packet {
	if p.ReconfigStatusFn == nil {
		return p.errResp(cmd, fmt.Errorf("asynchronous reconfiguration not wired on this platform"))
	}
	// Deliberately no loadedAddr clearing here: Applied is sticky in
	// the status (it reports the last terminal outcome), so a late poll
	// must not clobber loads made after the swap. The new SoC runs on
	// the same board memories anyway, so the loaded image survives it.
	return netproto.Packet{Command: cmd | netproto.RespFlag, Body: p.ReconfigStatusFn().Marshal()}
}

func (p *Platform) getConfig() netproto.Packet {
	if p.ConfigFn == nil {
		return p.errResp(netproto.CmdGetConfig, fmt.Errorf("configuration reporting not wired"))
	}
	return netproto.Packet{Command: netproto.CmdGetConfig | netproto.RespFlag, Body: p.ConfigFn()}
}

func (p *Platform) traceReport() netproto.Packet {
	if p.TraceFn == nil {
		return p.errResp(netproto.CmdTraceReport, fmt.Errorf("trace streaming not wired on this platform"))
	}
	body, err := p.TraceFn()
	if err != nil {
		return p.errResp(netproto.CmdTraceReport, err)
	}
	return netproto.Packet{Command: netproto.CmdTraceReport | netproto.RespFlag, Body: body}
}
