// Package fpx models the FPX side of Fig. 3: the layered Internet
// protocol wrappers that parse and format raw IPv4/UDP frames, the
// Control Packet Processor (CPP) that routes LEON command packets to
// the LEON controller, and the packet generator that transmits
// response frames. It also provides the hardware Emulator the paper's
// control software used for debugging before the bitfile existed.
package fpx

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"

	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/metrics/eventlog"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// LEONControl is what the CPP needs from the LEON controller; it is
// satisfied by *leon.Controller, *leon.AsyncController and by the
// Emulator. The §3.1 handoff is asynchronous: Start writes the entry
// address and returns as soon as the processor acknowledges, State and
// Cycles are poll-safe while the run is in flight, and CollectResult
// blocks until the run completes (for a self-driving implementation
// like the AsyncController) or drives it to completion (for the bare
// Controller).
type LEONControl interface {
	State() leon.State
	LoadProgram(addr uint32, image []byte) error
	Start(entry uint32, maxCycles uint64) error
	Cycles() uint64
	CollectResult() (leon.RunResult, error)
	ReadMemory(addr uint32, n int) ([]byte, error)
	WriteMemory(addr uint32, p []byte) error
	LastResult() leon.RunResult
}

// MaxReadLength caps a single Read Memory response.
const MaxReadLength = 64 << 10

// Stats counts platform activity. It predates the metrics registry and
// is kept for compatibility; the registry (Platform.Metrics) carries
// the same counts plus per-command and error detail. The fields are
// mutated with atomic adds on the handle path and snapshotted with
// atomic loads by Stats(), so reading them while boards run
// concurrently is race-free.
type Stats struct {
	FramesIn        uint64
	FramesOut       uint64
	BadFrames       uint64
	PassedThrough   uint64 // non-Liquid traffic the CPP ignored
	ChunksReceived  uint64
	LoadsCompleted  uint64
	CommandsHandled uint64
}

// platformMetrics are the registry instruments behind Stats.
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
		framesIn:      r.Counter("liquid_fpx_frames_in_total", "Raw frames entering the protocol wrappers."),
		framesOut:     r.Counter("liquid_fpx_frames_out_total", "Response frames emitted by the packet generator."),
		badFrames:     r.Counter("liquid_fpx_frames_bad_total", "Frames the IPv4/UDP wrappers rejected (checksum, truncation)."),
		passedThrough: r.Counter("liquid_fpx_frames_passthrough_total", "Non-Liquid traffic the CPP passed through untouched."),
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
	// was busy is swapped in here, on the dispatching goroutine — the
	// board worker when a server mounts this platform, which is the
	// goroutine SoC mutation is confined to.
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
	stats      Stats
	runDone    func() // completion hook, re-installed across SetControl
	// reconfigWake, when set, is invoked (from the core's ticket
	// watcher goroutine) whenever an asynchronous reconfiguration
	// finishes synthesis — the server's cue to pump the swap and wake
	// parked CmdWaitReconfig exchanges. Must not block.
	reconfigWake func()

	reg    *metrics.Registry
	events *eventlog.Log
	m      platformMetrics

	// tracer, when non-nil, records one span tree per exchange. The
	// handle path is structured so a nil tracer adds zero allocations.
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

// EnableTracing attaches a span collector to the platform's handle
// path: every exchange records a span tree under the trace id the
// request carried (v4 header), or, for an untraced request, under the
// id the server assigned it — or one the platform mints and finishes
// itself when no server did. Such an exchange-scoped trace covers the
// exchange only: the run or reconfiguration it starts records spans
// only when the client sent a trace id. A multi-board node passes the
// same collector to all its platforms so the node exports one merged
// timeline.
func (p *Platform) EnableTracing(col *tracing.Collector) { p.tracer = col }

// Tracer returns the attached span collector (nil when tracing is
// disabled).
func (p *Platform) Tracer() *tracing.Collector { return p.tracer }

// SetFlightRecorder attaches the crash-dump flight recorder: whenever
// this platform answers with CmdError, the recorder dumps the recent
// completed traces plus the eventlog tail to a timestamped file
// (rate-limited).
func (p *Platform) SetFlightRecorder(fr *tracing.FlightRecorder) { p.flight = fr }

// FlightRecorder returns the attached flight recorder (nil when none).
func (p *Platform) FlightRecorder() *tracing.FlightRecorder { return p.flight }

// SetControl swaps the LEON controller behind the platform — the
// moment after a new bitfile is loaded into the RAD and the rebuilt
// processor comes out of reset.
func (p *Platform) SetControl(ctrl LEONControl) {
	p.ctrl = ctrl
	p.load = nil
	p.loadedAddr = 0
	p.dedup = newDedupCache()
	// Keep the completion hook across the swap: the server's waiter
	// registry must still be woken by runs on the rebuilt processor.
	if p.runDone != nil {
		if n, ok := ctrl.(RunDoneNotifier); ok {
			n.SetRunDoneHook(p.runDone)
		}
	}
}

// Control returns the LEON controller currently behind the platform.
// The server's worker uses it to decide whether a CmdWaitResult
// exchange can be parked (the board must be observably running).
func (p *Platform) Control() LEONControl { return p.ctrl }

// RunDoneNotifier is the optional LEONControl extension a controller
// implements to support server-held result waits: fn is invoked every
// time a run completes. *leon.AsyncController implements it.
type RunDoneNotifier interface {
	SetRunDoneHook(fn func())
}

// SetRunDoneHook asks the platform's controller to invoke fn whenever
// a run completes, and reports whether the controller supports
// completion notification. The hook survives SetControl: it is
// re-installed on the replacement controller (when that controller is
// a notifier too). fn must not block.
func (p *Platform) SetRunDoneHook(fn func()) bool {
	p.runDone = fn
	if n, ok := p.ctrl.(RunDoneNotifier); ok {
		n.SetRunDoneHook(fn)
		return true
	}
	return false
}

// SetReconfigWakeHook asks the platform to invoke fn whenever an
// asynchronous reconfiguration finishes its synthesis, and reports
// whether this platform supports asynchronous reconfiguration at all
// (the core wired ReconfigStatusFn). fn must not block; it typically
// just signals the server's board worker, which then pumps the swap by
// dispatching through ReconfigStatusFn on its own goroutine.
func (p *Platform) SetReconfigWakeHook(fn func()) bool {
	p.reconfigWake = fn
	return p.ReconfigStatusFn != nil
}

// NotifyReconfig fires the reconfigure wake hook, reporting whether
// one was installed. The core's ticket watcher calls it on synthesis
// completion; when it returns false (no server mounted) the watcher
// pumps the swap itself.
func (p *Platform) NotifyReconfig() bool {
	if p.reconfigWake == nil {
		return false
	}
	p.reconfigWake()
	return true
}

// ReconfigInFlight reports whether an asynchronous reconfiguration is
// still non-terminal — the condition under which the server may park a
// CmdWaitReconfig exchange. It polls through ReconfigStatusFn, so the
// check itself pumps any swap that is ready to land.
func (p *Platform) ReconfigInFlight() bool {
	if p.ReconfigStatusFn == nil {
		return false
	}
	st := p.ReconfigStatusFn()
	return st.State != netproto.ReconfigNone && !st.Terminal()
}

// Stats returns a snapshot of the activity counters, taken with
// atomic loads so it is safe against a concurrently running handle
// path.
func (p *Platform) Stats() Stats {
	return Stats{
		FramesIn:        atomic.LoadUint64(&p.stats.FramesIn),
		FramesOut:       atomic.LoadUint64(&p.stats.FramesOut),
		BadFrames:       atomic.LoadUint64(&p.stats.BadFrames),
		PassedThrough:   atomic.LoadUint64(&p.stats.PassedThrough),
		ChunksReceived:  atomic.LoadUint64(&p.stats.ChunksReceived),
		LoadsCompleted:  atomic.LoadUint64(&p.stats.LoadsCompleted),
		CommandsHandled: atomic.LoadUint64(&p.stats.CommandsHandled),
	}
}

// LoadedAddr returns the address of the last fully reassembled load.
func (p *Platform) LoadedAddr() uint32 { return p.loadedAddr }

// HandleFrame is the full hardware path: the protocol wrappers parse
// the raw IPv4/UDP frame, the CPP routes Liquid control packets, and
// the packet generator formats zero or more response frames addressed
// back to the sender. Non-Liquid or wrong-port traffic produces no
// responses (it would pass through to the switch fabric).
func (p *Platform) HandleFrame(frame []byte) ([][]byte, error) {
	return p.HandleFrameTraced(frame, tracing.Ctx{})
}

// HandleFrameTraced is HandleFrame within the exchange's trace: the
// OS-socket server resolves the trace at dispatch time — the id the
// request carried, or one it assigns — records its queue-wait span
// there and passes the trace down here, so the platform's handle spans
// land in the same trace without looking it up again. A disabled xc
// means none was resolved: the platform uses the request's trace id,
// or mints one when tracing is enabled and finishes it when the
// exchange is handled.
func (p *Platform) HandleFrameTraced(frame []byte, xc tracing.Ctx) ([][]byte, error) {
	atomic.AddUint64(&p.stats.FramesIn, 1)
	p.m.framesIn.Inc()
	f, err := netproto.ParseFrame(frame)
	if err != nil {
		atomic.AddUint64(&p.stats.BadFrames, 1)
		p.m.badFrames.Inc()
		p.events.Warnf("wrappers rejected frame", "err", err)
		return nil, fmt.Errorf("fpx: wrappers rejected frame: %w", err)
	}
	if f.UDP.DstPort != p.Port || !netproto.IsLiquidPacket(f.Payload) {
		atomic.AddUint64(&p.stats.PassedThrough, 1)
		p.m.passedThrough.Inc()
		return nil, nil
	}
	resps := p.HandlePayloadFromTraced(peerKey(f.IP.Src, f.UDP.SrcPort), f.Payload, xc)
	frames := make([][]byte, len(resps))
	for i, r := range resps {
		frames[i] = netproto.BuildFrame(p.IP, f.IP.Src, p.Port, f.UDP.SrcPort, r.Marshal())
		atomic.AddUint64(&p.stats.FramesOut, 1)
		p.m.framesOut.Inc()
	}
	return frames, nil
}

// peerKey formats a frame's source as "a.b.c.d:port", the peer
// identity the dedup window keys on.
func peerKey(ip [4]byte, port uint16) string {
	var buf [len("255.255.255.255:65535")]byte
	b := buf[:0]
	for i, octet := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	b = append(b, ':')
	return string(strconv.AppendUint(b, uint64(port), 10))
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

// HandlePayload runs the CPP dispatch on one control-packet payload
// and returns the response packets, without a peer identity (exchange
// dedup then keys on command+seq alone). Prefer HandlePayloadFrom when
// the caller knows who sent the packet.
func (p *Platform) HandlePayload(payload []byte) []netproto.Packet {
	return p.HandlePayloadFrom("", payload)
}

// HandlePayloadFrom runs the CPP dispatch on one control-packet
// payload from the peer identified by src ("ip:port"; "" when
// unknown) and returns the response packets. This is the entry point
// for the OS-socket server, which receives payloads with the IP/UDP
// headers already stripped by the kernel.
//
// Requests carrying an exchange seq (the v4 header) pass through the
// per-board dedup window: a retransmission of an exchange this board
// already answered — the client's ack was lost or delayed — is
// answered with the cached responses instead of being re-applied, so
// a duplicated start never double-starts and a duplicated write never
// double-writes. Every response echoes the request's board and seq so
// the client can discard strays.
func (p *Platform) HandlePayloadFrom(src string, payload []byte) []netproto.Packet {
	return p.HandlePayloadFromTraced(src, payload, tracing.Ctx{})
}

// HandlePayloadFromTraced is HandlePayloadFrom within the exchange's
// trace xc (see HandleFrameTraced). Every added tracing step below is
// gated on p.tracer so the disabled path stays allocation-identical to
// the pre-tracing handle path. A trace the platform mints here is
// finished before it returns; one passed in belongs to the caller.
func (p *Platform) HandlePayloadFromTraced(src string, payload []byte, xc tracing.Ctx) []netproto.Packet {
	pkt, err := netproto.ParsePacket(payload)
	if err != nil {
		resps := []netproto.Packet{p.errResp(netproto.CmdStatus, err)}
		p.flightOnError(xc.TraceID())
		return resps
	}
	atomic.AddUint64(&p.stats.CommandsHandled, 1)
	p.m.commands.With(netproto.CommandName(pkt.Command)).Inc()

	// Resolve the exchange's trace and open the handle span. CmdTraces
	// itself is never traced: fetching a trace must not grow it. Only a
	// client-traced exchange hands its context (tc) to the run or
	// reconfiguration it starts: an exchange-scoped trace is complete
	// by the time that work records anything.
	var (
		hspan  tracing.SpanHandle
		tc     tracing.Ctx
		minted bool
	)
	if p.tracer != nil && pkt.Command != netproto.CmdTraces {
		if !xc.On() {
			id := pkt.TraceID
			if id == 0 {
				id, minted = p.tracer.NewTraceID(), true
			}
			xc = p.tracer.Trace(id)
		}
		hspan = xc.Start(handleSpanNames[pkt.Command])
		if pkt.TraceID != 0 {
			tc = hspan.Ctx()
		}
	}

	var key dedupKey
	useDedup := pkt.HasSeq && !p.DedupDisabled
	if useDedup {
		key = dedupKey{src: src, cmd: pkt.Command, seq: pkt.Seq}
		if resp, ok := p.dedup.lookup(key); ok {
			p.m.dupSuppressed.Inc()
			p.events.Debugf("dedup re-ack", "src", src, "cmd", netproto.CommandName(pkt.Command), "seq", pkt.Seq)
			if hspan.On() {
				hspan.EndAttrs(p.handleAttrs(pkt.Board, outcomeDedup)...)
			}
			if minted {
				p.tracer.Finish(xc.TraceID())
			}
			return resp
		}
	}
	resps := p.dispatch(pkt, tc)
	isErr := false
	for i := range resps {
		resps[i].Board = pkt.Board
		resps[i].Seq = pkt.Seq
		resps[i].HasSeq = pkt.HasSeq
		resps[i].TraceID = pkt.TraceID
		if resps[i].Command == netproto.CmdError {
			isErr = true
		}
	}
	if useDedup {
		p.dedup.remember(key, resps)
	}
	if hspan.On() {
		outcome := outcomeOK
		if isErr {
			outcome = outcomeError
		}
		hspan.EndAttrs(p.handleAttrs(pkt.Board, outcome)...)
	}
	if isErr {
		p.flightOnError(xc.TraceID())
	}
	if minted {
		p.tracer.Finish(xc.TraceID())
	}
	return resps
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

// dispatch routes one parsed control packet to its handler. tc is the
// exchange's trace context — disabled when tracing is off or the client
// sent no trace id; only the handlers that hand work to lower layers
// thread it further.
func (p *Platform) dispatch(pkt netproto.Packet, tc tracing.Ctx) []netproto.Packet {
	switch pkt.Command {
	case netproto.CmdStatus:
		return []netproto.Packet{p.status()}
	case netproto.CmdLoadProgram:
		return []netproto.Packet{p.loadChunk(pkt.Body)}
	case netproto.CmdStartLEON:
		return []netproto.Packet{p.start(pkt.Body, tc)}
	case netproto.CmdReadMemory:
		return []netproto.Packet{p.readMem(pkt.Body)}
	case netproto.CmdWriteMemory:
		return []netproto.Packet{p.writeMem(pkt.Body)}
	case netproto.CmdReconfigure:
		return []netproto.Packet{p.reconfigure(pkt.Body, tc)}
	case netproto.CmdGetConfig:
		return []netproto.Packet{p.getConfig()}
	case netproto.CmdTraceReport:
		return []netproto.Packet{p.traceReport()}
	case netproto.CmdStats:
		return []netproto.Packet{p.statsReport()}
	case netproto.CmdResult:
		return []netproto.Packet{p.result()}
	case netproto.CmdTraces:
		return []netproto.Packet{p.tracesCmd(pkt.Body)}
	case netproto.CmdWaitResult:
		return []netproto.Packet{p.waitResult()}
	case netproto.CmdReconfigStatus:
		return []netproto.Packet{p.reconfigStatus(netproto.CmdReconfigStatus)}
	case netproto.CmdWaitReconfig:
		return []netproto.Packet{p.reconfigStatus(netproto.CmdWaitReconfig)}
	default:
		return []netproto.Packet{p.errResp(pkt.Command, fmt.Errorf("unknown command %#02x", pkt.Command))}
	}
}

// CtxStarter is the optional LEONControl extension a trace-aware
// controller implements: Start with the exchange's trace context, so
// the asynchronous run's spans (run, slices) nest under the trace that
// started it.
type CtxStarter interface {
	StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error
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
// resuming client can skip the chunks this board already holds.
func (p *Platform) loadChunk(body []byte) netproto.Packet {
	c, err := netproto.ParseLoadChunk(body)
	if err != nil {
		return p.errResp(netproto.CmdLoadProgram, err)
	}
	atomic.AddUint64(&p.stats.ChunksReceived, 1)
	p.m.chunks.Inc()
	if p.load == nil || p.load.addr != c.Addr || p.load.total != c.Total || len(p.load.buf) != int(c.TotalLen) {
		p.load = &loadState{
			addr:     c.Addr,
			total:    c.Total,
			buf:      make([]byte, c.TotalLen),
			received: make([]bool, c.Total),
		}
	}
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
	atomic.AddUint64(&p.stats.LoadsCompleted, 1)
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
	if cs, ok := p.ctrl.(CtxStarter); ok && tc.On() {
		err = cs.StartCtx(tc, entry, maxCycles)
	} else {
		err = p.ctrl.Start(entry, maxCycles)
	}
	if err != nil {
		return p.errResp(netproto.CmdStartLEON, err)
	}
	rep := netproto.RunReport{Status: netproto.StatusRunning, Cycles: p.ctrl.Cycles()}
	return netproto.Packet{Command: netproto.CmdStartLEON | netproto.RespFlag, Body: rep.Marshal()}
}

// parseStart decodes a StartReq body and resolves the entry address
// (0 means "address of the last load").
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
	return entry, req.MaxCycles, nil
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
// driven without a parking server — tests feeding HandlePayload
// directly — simply answers immediately, which is the HoldMs=0
// behavior.
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
