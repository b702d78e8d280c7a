// Package server implements the Reconfiguration Server of Fig. 1: the
// network daemon that controls access to the FPX platforms, sequencing
// the loading and execution of applications. It binds a real UDP
// socket; each datagram is re-wrapped into a synthetic IPv4/UDP frame
// so the FPX protocol wrappers and Control Packet Processor run on the
// exact bytes the hardware would see.
//
// A Server is a node hosting one or more boards (platforms), mirroring
// the four-port NID switch of Fig. 2. Datagrams carry a board id in
// the v4 control header (the paper's v1 header reaches board 0); the
// read loop only parses the header for routing and NEVER blocks on
// execution — each board has a bounded FIFO command queue drained by
// its own worker goroutine, so a long run on one board cannot delay a
// status poll on another, and a full queue applies backpressure with a
// CmdError "busy" response instead of unbounded buffering.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/metrics/eventlog"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// readBufBytes is the datagram receive buffer size (one UDP datagram
// never exceeds 64 KiB).
const readBufBytes = 64 << 10

// DefaultQueueCap is each board's command-queue bound. Beyond it the
// server answers CmdError "busy" — the client backs off and retries.
const DefaultQueueCap = 64

// maxParkedPerBoard bounds how many CmdWaitResult/CmdWaitReconfig
// exchanges one board worker will hold at once; beyond it waits are
// answered immediately (StatusRunning / the live ticket state) and
// the client re-issues them at its poll interval, instead of the node
// buffering unboundedly.
const maxParkedPerBoard = 64

// Parked-exchange kinds: what completion event releases the wait.
const (
	waitKindResult   = "result"   // CmdWaitResult, released on run completion
	waitKindReconfig = "reconfig" // CmdWaitReconfig, released when the swap lands
)

// maxHoldMs caps the server-side hold a client may request, so a
// forged HoldMs cannot pin worker state for minutes. A client wanting
// a longer wait simply re-issues the command.
const maxHoldMs = 10_000

// serverMetrics are the server-side instruments, registered on the
// node-wide registry (board 0's platform registry).
type serverMetrics struct {
	datagramsIn  *metrics.Counter
	datagramsOut *metrics.Counter
	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	drops        *metrics.CounterVec
	sendErrors   *metrics.Counter
	handleDur    *metrics.HistogramVec
	parked       *metrics.Counter
	wakeups      *metrics.CounterVec
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	return serverMetrics{
		datagramsIn:  r.Counter("liquid_server_datagrams_in_total", "UDP datagrams received by the reconfiguration server."),
		datagramsOut: r.Counter("liquid_server_datagrams_out_total", "UDP datagrams sent back to clients."),
		bytesIn:      r.Counter("liquid_server_bytes_in_total", "Request payload bytes received."),
		bytesOut:     r.Counter("liquid_server_bytes_out_total", "Response payload bytes sent."),
		drops:        r.CounterVec("liquid_server_drops_total", "Requests that produced no response, by reason.", "reason"),
		sendErrors:   r.Counter("liquid_server_send_errors_total", "Response datagrams the socket refused to send."),
		handleDur:    r.HistogramVec("liquid_server_handled_duration_seconds", "Wall time spent handling one datagram end to end.", "cmd", metrics.DefSecondsBuckets),
		parked:       r.Counter("liquid_server_waits_parked_total", "CmdWaitResult exchanges parked on a board worker until run completion or hold expiry."),
		wakeups:      r.CounterVec("liquid_server_wait_wakeups_total", "Parked wait releases, by reason (done, expired, shutdown).", "reason"),
	}
}

// job is one routed datagram, owned by a board worker until processed.
type job struct {
	bufp    *[]byte // pooled backing array, returned after processing
	payload []byte  // the datagram bytes within bufp
	peer    *net.UDPAddr
	src     [4]byte // synthetic frame source (mapped peer IPv4)
	cmd     string  // command label for telemetry
	start   time.Time
	// qspan covers the time from dispatch to worker pickup (the
	// queue-wait hop of the exchange trace); zero when tracing is off.
	qspan tracing.SpanHandle
	// trace is the exchange's resolved trace — the id the packet
	// carried, or a server-assigned one for untraced requests — passed
	// down so the platform's spans land in it; disabled when tracing is
	// off.
	trace tracing.Ctx
	// ownTrace marks a server-assigned trace: it covers this exchange
	// only, and the server finishes it once the exchange ends.
	ownTrace bool
}

// Server serves one or more FPX platforms over UDP. Requests for the
// same board are handled strictly in arrival order — each LEON is a
// single execution resource and the reconfiguration server's job is to
// sequence access to it — while different boards run concurrently.
type Server struct {
	boards []*fpx.Platform
	conn   net.PacketConn
	clk    sim.Clock
	queues []chan job

	// Log, when non-nil, receives one line per handled datagram. It is
	// the legacy printf hook, kept as a compatibility shim over the
	// structured event log (see Events).
	Log func(format string, args ...any)

	m       serverMetrics
	events  *eventlog.Log
	tracer  *tracing.Collector
	bufs    sync.Pool
	wg      sync.WaitGroup
	waiters atomic.Int64 // CmdWaitResult exchanges currently parked, node-wide

	mu     sync.Mutex
	closed bool
}

// New binds a UDP socket at addr (e.g. "127.0.0.1:0") serving a single
// platform as board 0 — the historical one-board node.
func New(platform *fpx.Platform, addr string) (*Server, error) {
	return NewNode(addr, platform)
}

// NewNode binds a UDP socket at addr serving platforms as boards
// 0..len-1. Node telemetry (socket counters, queue depth, drops) is
// registered on board 0's metrics registry, so one snapshot covers the
// whole node's network face.
func NewNode(addr string, platforms ...*fpx.Platform) (*Server, error) {
	return newNode(addr, DefaultQueueCap, platforms...)
}

// newNode is NewNode with a configurable per-board queue bound (small
// bounds are used by backpressure tests).
func newNode(addr string, queueCap int, platforms ...*fpx.Platform) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return newNodeConn(conn, nil, queueCap, platforms...)
}

// NewNodeConn builds a node over an existing packet transport with an
// injected clock (nil = real time) — the entry point the deterministic
// simulation fabric uses. The conn's reads must yield *net.UDPAddr
// peers (sim.Network and real UDP sockets both do).
func NewNodeConn(conn net.PacketConn, clk sim.Clock, platforms ...*fpx.Platform) (*Server, error) {
	return newNodeConn(conn, clk, DefaultQueueCap, platforms...)
}

func newNodeConn(conn net.PacketConn, clk sim.Clock, queueCap int, platforms ...*fpx.Platform) (*Server, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("server: node needs at least one platform")
	}
	if len(platforms) > 256 {
		return nil, fmt.Errorf("server: board id is one byte; %d platforms exceed 256", len(platforms))
	}
	if queueCap < 1 {
		queueCap = 1
	}
	// Every board can pin a scheduler thread with a compute-bound run;
	// keep one spare so the UDP read loop and netpoller never wait for
	// the runtime's ~10 ms background poll. Scheduling only — simulated
	// timing is unaffected.
	if n := runtime.GOMAXPROCS(0); n < len(platforms)+1 {
		runtime.GOMAXPROCS(len(platforms) + 1)
	}
	s := &Server{
		boards: platforms,
		conn:   conn,
		clk:    sim.Or(clk),
		queues: make([]chan job, len(platforms)),
		m:      newServerMetrics(platforms[0].Metrics()),
		events: platforms[0].Events(),
	}
	s.bufs.New = func() any {
		b := make([]byte, readBufBytes)
		return &b
	}
	for i := range s.queues {
		s.queues[i] = make(chan job, queueCap)
	}
	platforms[0].Metrics().GaugeFunc("liquid_server_queue_depth",
		"Commands queued across all board workers (bounded; overflow answers busy).",
		func() float64 {
			total := 0
			for _, q := range s.queues {
				total += len(q)
			}
			return float64(total)
		})
	platforms[0].Metrics().GaugeFunc("liquid_server_wait_waiters",
		"CmdWaitResult exchanges currently parked across all board workers.",
		func() float64 { return float64(s.waiters.Load()) })
	return s, nil
}

// EnableTracing attaches one span collector to the whole node: the
// read loop records a queue-wait span per routed datagram and every
// board platform records its handle spans into the same collector, so
// one export shows the full server-side timeline of an exchange.
//
// Requests that carry no trace id (v1, or v4 with trace id 0) get a
// server-assigned one at dispatch time. That trace lives exactly as
// long as its exchange — queue, park and handle spans — and is finished
// once the reply is sent or the datagram dropped, so the completed
// ring holds the last tracing.DefMaxDone exchanges and a failed one is
// in the flight dump. The run or reconfiguration an untraced exchange
// starts records no spans; those need a client trace id.
//
// The collector's state is registered on the node registry:
// liquid_tracing_active_traces, liquid_tracing_retired_total (traces
// the active cap force-completed) and liquid_tracing_spans_dropped_total.
// Call before Serve.
func (s *Server) EnableTracing(col *tracing.Collector) {
	s.tracer = col
	for _, p := range s.boards {
		p.EnableTracing(col)
	}
	r := s.Metrics()
	r.GaugeFunc("liquid_tracing_active_traces",
		"Traces recording now (a server-assigned one ends with its exchange).",
		func() float64 { return float64(col.ActiveCount()) })
	r.CounterFunc("liquid_tracing_retired_total",
		"Active traces the collector's cap force-completed.", col.Retired)
	r.CounterFunc("liquid_tracing_spans_dropped_total",
		"Spans dropped: past a trace's span bound, or ending after their trace completed.", col.SpansDropped)
}

// Tracer returns the node's span collector (nil when tracing is
// disabled).
func (s *Server) Tracer() *tracing.Collector { return s.tracer }

// SetFlightRecorder attaches a flight recorder to every board
// platform (CmdError responses trigger a dump).
func (s *Server) SetFlightRecorder(fr *tracing.FlightRecorder) {
	for _, p := range s.boards {
		p.SetFlightRecorder(fr)
	}
}

// Addr returns the bound address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Boards returns how many platforms this node serves.
func (s *Server) Boards() int { return len(s.boards) }

// Metrics returns the node-wide telemetry registry (board 0's).
func (s *Server) Metrics() *metrics.Registry { return s.boards[0].Metrics() }

// Events returns the node-wide structured event log.
func (s *Server) Events() *eventlog.Log { return s.events }

// Serve processes datagrams until Close is called, returning nil on
// clean shutdown. The read loop only parses the control header (for
// board routing and telemetry labels) and enqueues; it never waits on
// a board, so the node stays responsive while programs execute.
// Receive buffers come from a sync.Pool and are owned by the board
// worker until the response is sent.
func (s *Server) Serve() error {
	for i, p := range s.boards {
		s.wg.Add(1)
		go s.worker(i, p, s.queues[i])
	}
	var err error
	for {
		bufp := s.bufs.Get().(*[]byte)
		buf := *bufp
		n, addr, rerr := s.conn.ReadFrom(buf)
		if rerr != nil {
			s.bufs.Put(bufp)
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && !errors.Is(rerr, net.ErrClosed) {
				err = fmt.Errorf("server: read: %w", rerr)
			}
			break
		}
		peer, ok := addr.(*net.UDPAddr)
		if !ok {
			// A transport that does not speak UDP addressing cannot be
			// mapped into the synthetic frame source.
			s.m.drops.With("peer_addr").Inc()
			s.events.Warnf("non-UDP peer address", "peer", addr)
			s.bufs.Put(bufp)
			continue
		}
		s.dispatch(bufp, buf[:n], peer)
	}
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	return err
}

// dispatch routes one datagram to its board queue, applying the
// drop/backpressure policy. It runs on the read loop and must not
// block.
func (s *Server) dispatch(bufp *[]byte, payload []byte, peer *net.UDPAddr) {
	s.m.datagramsIn.Inc()
	s.m.bytesIn.Add(uint64(len(payload)))
	board := 0
	cmd := "invalid"
	hdr := netproto.Packet{Command: netproto.CmdStatus}
	if pkt, err := netproto.ParsePacket(payload); err == nil {
		cmd = netproto.CommandName(pkt.Command)
		board = int(pkt.Board)
		hdr = pkt
	}
	j := job{bufp: bufp, payload: payload, peer: peer, cmd: cmd}
	// Resolve the exchange's trace and open the queue-wait span. The
	// span is handed to the board worker inside the job and ended at
	// pickup, so its duration IS the queue wait; requests dropped on
	// the read loop end it here with the drop reason.
	if s.tracer != nil {
		id := hdr.TraceID
		if id == 0 {
			id, j.ownTrace = s.tracer.NewTraceID(), true
		}
		j.trace = s.tracer.Trace(id)
		j.qspan = j.trace.Start("queue")
	}
	src, ok := ipv4Of(peer.IP)
	if !ok {
		// A peer address the synthetic IPv4 frame cannot carry: drop
		// and count instead of forging a source (the old code silently
		// coerced non-v4 peers to 127.0.0.1).
		s.events.Warnf("unmappable peer address", "peer", peer)
		s.logf("drop from %v: unmappable peer address", peer)
		s.dropOnReadLoop(j, board, "peer_addr")
		return
	}
	// A drop that draws a reply is counted before the reply leaves, so
	// a client that sees the error also sees the count.
	if board >= len(s.boards) {
		s.dropOnReadLoop(j, board, "bad_board")
		s.replyError(peer, hdr, fmt.Sprintf("no board %d on this node (%d boards)", board, len(s.boards)))
		return
	}
	j.src, j.start = src, s.clk.Now()
	select {
	case s.queues[board] <- j:
	default:
		// Bounded queue full: backpressure, not buffering.
		s.dropOnReadLoop(j, board, "busy")
		s.replyError(peer, hdr, fmt.Sprintf("board %d busy (queue full)", board))
	}
}

// dropOnReadLoop ends a datagram the read loop does not route: counted
// by reason, its buffer returned, its queue span ended with the reason
// and its trace finished.
func (s *Server) dropOnReadLoop(j job, board int, reason string) {
	s.m.drops.With(reason).Inc()
	s.bufs.Put(j.bufp)
	if j.qspan.On() {
		j.qspan.EndAttrs(tracing.A("cmd", j.cmd), tracing.A("board", strconv.Itoa(board)), tracing.A("drop", reason))
	}
	s.endTrace(j)
}

// endTrace finishes a server-assigned trace once its exchange is over
// (replied to or dropped). A trace the client named stays active: the
// client may send more exchanges under it and fetches it by id.
func (s *Server) endTrace(j job) {
	if j.ownTrace {
		s.tracer.Finish(j.trace.TraceID())
	}
}

// replyError sends a CmdError straight from the read loop (for
// failures the board worker never sees: bad board, full queue). The
// whole request header — board, exchange seq and trace id — is echoed,
// as the worker path does, so a sequencing client attributes the error
// to the right request and trace.
func (s *Server) replyError(peer *net.UDPAddr, req netproto.Packet, msg string) {
	pkt := req
	pkt.Command = netproto.CmdError
	pkt.Body = netproto.ErrorResp{Code: req.Command, Msg: msg}.Marshal()
	raw := pkt.Marshal()
	if n, err := s.conn.WriteTo(raw, peer); err != nil {
		s.m.sendErrors.Inc()
	} else {
		s.m.datagramsOut.Inc()
		s.m.bytesOut.Add(uint64(n))
	}
}

// parkedWait is one CmdWaitResult or CmdWaitReconfig exchange held by
// a board worker until its completion event fires, the hold expires,
// or the node shuts down. Entries are owned by the worker goroutine —
// no locking.
type parkedWait struct {
	j        job
	kind     string // waitKindResult or waitKindReconfig
	key      string // peer|seq identity for retransmit suppression ("" when the request carried no seq)
	deadline time.Time
	span     tracing.SpanHandle
}

// worker drains one board's command queue in arrival order. The
// goroutine carries pprof labels (board=N, plus cmd=... around each
// job) so CPU profiles from /debug/pprof attribute time per board and
// per command; the per-command label contexts (and queue-span
// annotations) are built once per worker, not per job.
//
// Beyond plain draining, the worker is the board's waiter registry:
// a CmdWaitResult that arrives while the board is running is parked
// (bounded count, bounded hold) instead of answered, and replayed
// through the normal handler the instant the AsyncController's
// completion hook fires — so a waiting client learns of completion at
// network latency rather than at its poll interval. Parking keeps the
// dedup guarantees intact because the exchange is processed exactly
// once, on this goroutine, at release time; a retransmit of a
// currently-parked exchange is dropped silently (the parked original
// will answer with the same seq).
func (s *Server) worker(board int, p *fpx.Platform, queue chan job) {
	defer s.wg.Done()
	boardLabel := strconv.Itoa(board)
	pprof.Do(context.Background(), pprof.Labels("board", boardLabel), func(ctx context.Context) {
		cmds := workerCmds(ctx, boardLabel)
		runJob := func(j job) {
			pprof.SetGoroutineLabels(cmds[j.cmd].labels)
			if err := s.process(p, j); err != nil {
				s.events.Warnf("request dropped", "peer", j.peer, "board", board, "err", err)
				s.logf("drop from %v: %v", j.peer, err)
			}
			pprof.SetGoroutineLabels(ctx)
			s.bufs.Put(j.bufp)
			s.endTrace(j)
		}

		// wake carries at most one token: the completion hook runs on the
		// board's actor goroutine and must never block, and one token is
		// enough — the worker releases every parked waiter per token.
		wake := make(chan struct{}, 1)
		canPark := p.SetRunDoneHook(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})
		// rwake is the reconfiguration twin: the core's ticket watcher
		// signals it when an asynchronous synthesis completes, and the
		// worker pumps the swap HERE — this goroutine is the one SoC
		// mutation is confined to — before releasing reconfig waiters.
		rwake := make(chan struct{}, 1)
		canParkReconfig := p.SetReconfigWakeHook(func() {
			select {
			case rwake <- struct{}{}:
			default:
			}
		})

		var parked []parkedWait
		release := func(i int, reason string) {
			e := parked[i]
			parked = append(parked[:i], parked[i+1:]...)
			s.waiters.Add(-1)
			s.m.wakeups.With(reason).Inc()
			if e.span.On() {
				e.span.EndAttrs(tracing.A("cmd", e.j.cmd), tracing.A("board", boardLabel), tracing.A("wake", reason))
			}
			runJob(e.j)
		}
		releaseKind := func(kind, reason string) {
			for i := 0; i < len(parked); {
				if parked[i].kind == kind {
					release(i, reason)
				} else {
					i++
				}
			}
		}

		for {
			// Arm a deadline only while something is parked.
			var (
				timer  *sim.Timer
				timerC <-chan time.Time
			)
			if len(parked) > 0 {
				earliest := parked[0].deadline
				for _, e := range parked[1:] {
					if e.deadline.Before(earliest) {
						earliest = e.deadline
					}
				}
				timer = s.clk.NewTimer(s.clk.Until(earliest))
				timerC = timer.C
			}

			select {
			case j, ok := <-queue:
				if timer != nil {
					timer.Stop()
				}
				if !ok {
					for len(parked) > 0 {
						release(0, "shutdown")
					}
					return
				}
				if j.qspan.On() { // queue wait is over; processing begins
					j.qspan.EndAttrs(cmds[j.cmd].queueAttrs...)
				}
				if pw, keep := s.tryPark(p, j, canPark, canParkReconfig, parked, wake, rwake); keep {
					parked = append(parked, pw)
					continue
				} else if pw.key == dupSentinel {
					// Retransmit of a currently-parked exchange: the parked
					// original will answer; this copy is dropped.
					s.bufs.Put(j.bufp)
					s.endTrace(j)
					continue
				}
				runJob(j)

			case <-wake:
				if timer != nil {
					timer.Stop()
				}
				// Run complete: every parked result waiter gets its (now
				// final) answer, in park order — and a full swap that was
				// deferred behind this run can land now (ReconfigInFlight
				// pumps through ReconfigStatusFn on this goroutine).
				releaseKind(waitKindResult, "done")
				if !p.ReconfigInFlight() {
					releaseKind(waitKindReconfig, "done")
				}

			case <-rwake:
				if timer != nil {
					timer.Stop()
				}
				// Synthesis complete: pump the swap on this goroutine and,
				// once the reconfiguration is terminal, answer its waiters.
				// Still-in-flight means the swap is deferred behind a run
				// (ReconfigSwapping) — the run-done wake will retry.
				if !p.ReconfigInFlight() {
					releaseKind(waitKindReconfig, "done")
				}

			case <-timerC:
				now := s.clk.Now()
				for i := 0; i < len(parked); {
					if !parked[i].deadline.After(now) {
						// Hold expired mid-run: the handler answers
						// StatusRunning and the client re-issues the wait.
						release(i, "expired")
					} else {
						i++
					}
				}
			}
		}
	})
}

// workerCmd is what a board worker attaches to every job of one
// command: its pprof label context (a child of the worker's board
// context) and its queue span's annotations.
type workerCmd struct {
	labels     context.Context
	queueAttrs []tracing.Attr
}

// workerCmds builds the workerCmd of every command label a job can
// carry ("invalid" and each netproto.CommandName).
func workerCmds(board context.Context, boardLabel string) map[string]workerCmd {
	cmds := map[string]workerCmd{}
	for c := -1; c < 256; c++ {
		name := "invalid"
		if c >= 0 {
			name = netproto.CommandName(uint8(c))
		}
		if _, ok := cmds[name]; !ok {
			cmds[name] = workerCmd{
				labels:     pprof.WithLabels(board, pprof.Labels("cmd", name)),
				queueAttrs: []tracing.Attr{tracing.A("cmd", name), tracing.A("board", boardLabel)},
			}
		}
	}
	return cmds
}

// dupSentinel marks a tryPark result meaning "drop this job: it is a
// retransmit of an exchange already parked".
const dupSentinel = "\x00dup"

// tryPark decides whether job j should be parked. It returns
// (entry, true) to park, (zero, false) to process normally, or
// (entry with key==dupSentinel, false) when j duplicates a parked
// exchange and must be dropped.
func (s *Server) tryPark(p *fpx.Platform, j job, canPark, canParkReconfig bool, parked []parkedWait, wake, rwake chan struct{}) (parkedWait, bool) {
	pkt, err := netproto.ParsePacket(j.payload)
	if err != nil {
		return parkedWait{}, false
	}
	var kind string
	switch pkt.Command {
	case netproto.CmdWaitResult:
		if !canPark {
			return parkedWait{}, false
		}
		kind = waitKindResult
	case netproto.CmdWaitReconfig:
		if !canParkReconfig {
			return parkedWait{}, false
		}
		kind = waitKindReconfig
	default:
		return parkedWait{}, false
	}
	key := ""
	if pkt.HasSeq {
		key = j.peer.String() + "|" + strconv.Itoa(int(pkt.Seq))
		for _, e := range parked {
			if e.key == key {
				s.m.drops.With("parked_dup").Inc()
				s.events.Debugf("parked wait retransmit dropped", "peer", j.peer, "seq", pkt.Seq)
				return parkedWait{key: dupSentinel}, false
			}
		}
	}
	req, rerr := netproto.ParseWaitResultReq(pkt.Body)
	if rerr != nil || req.HoldMs == 0 {
		return parkedWait{}, false
	}
	holdMs := req.HoldMs
	if holdMs > maxHoldMs {
		holdMs = maxHoldMs
	}
	if len(parked) >= maxParkedPerBoard {
		return parkedWait{}, false
	}
	kindParked := 0
	for _, e := range parked {
		if e.kind == kind {
			kindParked++
		}
	}
	if kindParked == 0 {
		// Drain any stale wake token from a previous completion BEFORE
		// checking the state: drain-then-check cannot lose a wakeup (a
		// completion after the drain re-sends the token), while
		// check-then-drain could eat the very token this waiter needs.
		ch := wake
		if kind == waitKindReconfig {
			ch = rwake
		}
		select {
		case <-ch:
		default:
		}
	}
	if kind == waitKindResult {
		if p.Control().State() != leon.StateRunning {
			return parkedWait{}, false // answer immediately: result is already final
		}
	} else if !p.ReconfigInFlight() {
		// Already terminal (the check pumps any ready swap first):
		// answer immediately through the normal handler.
		return parkedWait{}, false
	}
	span := j.trace.Start("park")
	s.m.parked.Inc()
	s.waiters.Add(1)
	return parkedWait{
		j:        j,
		kind:     kind,
		key:      key,
		deadline: s.clk.Now().Add(time.Duration(holdMs) * time.Millisecond),
		span:     span,
	}, true
}

// process re-wraps the datagram as the raw frame the FPX would
// receive, runs the hardware path, and relays response payloads to the
// peer. Every failure is returned (and counted by reason) rather than
// silently swallowed.
func (s *Server) process(p *fpx.Platform, j job) error {
	frame := netproto.BuildFrame(j.src, p.IP, uint16(j.peer.Port), p.Port, j.payload)
	outs, err := p.HandleFrameTraced(frame, j.trace)
	if err != nil {
		s.m.drops.With("platform").Inc()
		return err
	}
	for _, raw := range outs {
		f, err := netproto.ParseFrame(raw)
		if err != nil {
			// The packet generator produced this frame itself; a parse
			// failure here is a platform bug and must be loud, not a
			// silent continue.
			s.m.drops.With("response_parse").Inc()
			return fmt.Errorf("server: generated response unparseable: %w", err)
		}
		n, err := s.conn.WriteTo(f.Payload, j.peer)
		if err != nil {
			s.m.sendErrors.Inc()
			return fmt.Errorf("server: send to %v: %w", j.peer, err)
		}
		s.m.datagramsOut.Inc()
		s.m.bytesOut.Add(uint64(n))
	}
	s.m.handleDur.With(j.cmd).Observe(s.clk.Since(j.start).Seconds())
	s.events.Debugf("handled", "peer", j.peer, "cmd", j.cmd, "bytes", len(j.payload), "responses", len(outs))
	s.logf("%v: %d byte request, %d responses", j.peer, len(j.payload), len(outs))
	return nil
}

// logf feeds the legacy printf hook when installed.
func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

// ipv4Of maps an IP to 4 bytes for the synthetic frame source.
// IPv4 and IPv4-mapped-IPv6 peers map exactly; anything else reports
// false (counted as drops{peer_addr} by the caller) instead of being
// forged into a loopback source.
func ipv4Of(ip net.IP) ([4]byte, bool) {
	var out [4]byte
	v4 := ip.To4()
	if v4 == nil {
		return out, false
	}
	copy(out[:], v4)
	return out, true
}

// Close shuts the server down; Serve returns afterwards (after the
// board workers drain their queues).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.conn.Close()
}
