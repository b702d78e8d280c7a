// Package server implements the Reconfiguration Server of Fig. 1: the
// network daemon that controls access to the FPX platforms, sequencing
// the loading and execution of applications. It binds a real UDP
// socket, so the host's stack has already checked the IPv4/UDP layers
// the FPX's protocol wrappers check on the line: each datagram goes to
// its board's Control Packet Processor as it was read (fpx.Platform's
// Handle, with the sender as its peer), and the one reply comes back as
// one datagram.
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
	acksFolded   *metrics.Counter
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
		acksFolded:   r.Counter("liquid_server_load_acks_folded_total", "Pending load acks not sent because the next chunk's ack, sent right after, advertises a gap past them (replies built = datagrams out + folded)."),
	}
}

// job is one routed datagram, owned by a board worker until processed.
type job struct {
	bufp    *[]byte // pooled backing array, returned after processing
	payload []byte  // the datagram bytes within bufp
	peer    *net.UDPAddr
	src     fpx.Peer // the sender as the platform knows it (IPv4 and port)
	cmd     string   // command label for telemetry
	// hdr is the control header the read loop parsed, its Body aliasing
	// payload; a bare CmdStatus header when the datagram does not parse,
	// which the worker neither parks nor folds.
	hdr netproto.Packet
	// load names the load a sequenced (v4) CmdLoadProgram chunk belongs
	// to, and chunk is its index; load is zero for every other datagram.
	load  loadKey
	chunk uint16
	start time.Time
	// qspan covers the time from dispatch to worker pickup (the
	// queue-wait hop of the exchange trace); zero when tracing is off.
	qspan tracing.SpanHandle
	// trace is the exchange's resolved trace — the id the packet
	// carried, or a server-assigned one for untraced requests — passed
	// to the platform, whose handle span lands in it; disabled when
	// tracing is off. The server is the only place that resolves it.
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

	m       serverMetrics
	events  *eventlog.Log
	tracer  *tracing.Collector
	bufs    sync.Pool
	wg      sync.WaitGroup
	waiters atomic.Int64 // CmdWaitResult exchanges currently parked, node-wide

	mu     sync.Mutex
	closed bool
}

// NewNode binds a UDP socket at addr (e.g. "127.0.0.1:0") serving
// platforms as boards 0..len-1. Node telemetry (socket counters, queue
// depth, drops) is registered on board 0's metrics registry, so one
// snapshot covers the whole node's network face.
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
			// A transport that does not speak UDP addressing names no
			// peer a reply can go back to.
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
	j := job{bufp: bufp, payload: payload, peer: peer, cmd: cmd, hdr: hdr}
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
	ip, ok := ipv4Of(peer.IP)
	if !ok {
		// A peer the platform cannot name (the dedup window and the
		// load fold key on an IPv4 sender): drop and count instead of
		// forging a source.
		s.events.Warnf("unmappable peer address", "peer", peer)
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
	j.src, j.start = fpx.Peer{IP: ip, Port: uint16(peer.Port)}, s.clk.Now()
	if hdr.Command == netproto.CmdLoadProgram && hdr.HasSeq {
		if c, err := netproto.ParseLoadChunk(hdr.Body); err == nil {
			j.load = loadKey{src: j.src, addr: c.Addr, totalLen: c.TotalLen, total: c.Total}
			j.chunk = c.Seq
		}
	}
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
	s.send(peer, pkt)
}

// send writes one reply to peer, counting the datagram out; a send
// error is counted and logged.
func (s *Server) send(peer *net.UDPAddr, reply netproto.Packet) {
	n, err := s.conn.WriteTo(reply.Marshal(), peer)
	if err != nil {
		s.m.sendErrors.Inc()
		s.events.Warnf("reply not sent", "peer", peer, "err", err)
		return
	}
	s.m.datagramsOut.Inc()
	s.m.bytesOut.Add(uint64(n))
}

// parkedWait is one CmdWaitResult or CmdWaitReconfig exchange held by
// a board worker until its answer is final, the hold expires, or the
// node shuts down. Entries are owned by the worker goroutine — no
// locking.
type parkedWait struct {
	j        job
	deadline time.Time
	span     tracing.SpanHandle
}

// worker drains one board's command queue in arrival order. The
// goroutine carries pprof labels (board=N, plus cmd=... around each
// job) so CPU profiles from /debug/pprof attribute time per board and
// per command; the per-command label contexts (and queue-span
// annotations) are built once per worker, not per job.
//
// Beyond plain draining, the worker is the board's waiter registry: a
// CmdWaitResult or CmdWaitReconfig whose answer is not yet final (see
// final) is parked (bounded count, bounded hold) instead of answered.
// The board has one wake, the platform's run-done hook, which fires
// when a run completes and, on a core-backed board, when a pending
// reconfiguration's synthesis finishes. A token means "look again":
// the worker replays through the normal handler, in park order, the
// result waits whose run has ended, then pumps the pending
// reconfiguration, then replays every wait still parked whose answer
// is now final, so a waiting client learns of completion at network
// latency rather than at its poll interval. A token that changes no
// answer leaves every wait parked. Parking keeps the dedup guarantees
// intact because the exchange is processed exactly once, on this
// goroutine, at release time; a retransmit of a currently-parked
// exchange is dropped silently (the parked original will answer with
// the same seq).
//
// The worker also folds load acks (see serve and settle): a Pending
// ack to a sequenced chunk is held while the next chunk of the same
// load from the same peer, already queued, is handled, and is sent
// only if that chunk's ack does not settle it on the client. Each
// folded ack counts in liquid_server_load_acks_folded_total, so the
// replies the board builds equal the datagrams sent plus those folded.
func (s *Server) worker(board int, p *fpx.Platform, queue chan job) {
	defer s.wg.Done()
	boardLabel := strconv.Itoa(board)
	pprof.Do(context.Background(), pprof.Labels("board", boardLabel), func(ctx context.Context) {
		cmds := workerCmds(ctx, boardLabel)
		// handle hands j to the platform and returns its reply, unsent;
		// ok is false for a payload that passes through (no reply).
		handle := func(j job) (reply netproto.Packet, ok bool) {
			pprof.SetGoroutineLabels(cmds[j.cmd].labels)
			reply, ok = p.Handle(j.src, j.payload, j.trace)
			s.m.handleDur.With(j.cmd).Observe(s.clk.Since(j.start).Seconds())
			s.events.Debugf("handled", "peer", j.peer, "cmd", j.cmd, "bytes", len(j.payload))
			pprof.SetGoroutineLabels(ctx)
			s.bufs.Put(j.bufp)
			return reply, ok
		}
		runJob := func(j job) {
			if reply, ok := handle(j); ok {
				s.send(j.peer, reply)
			}
			s.endTrace(j)
		}

		// wake carries at most one token: the hook runs on the board's
		// actor or its ticket watcher and must never block, and one token
		// is enough — each one makes the worker look at every parked wait.
		wake := make(chan struct{}, 1)
		p.SetRunDoneHook(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})

		var parked []parkedWait
		// releaseWhere answers, in park order, every parked wait that
		// ready picks.
		releaseWhere := func(reason string, ready func(parkedWait) bool) {
			for i := 0; i < len(parked); {
				e := parked[i]
				if !ready(e) {
					i++
					continue
				}
				parked = append(parked[:i], parked[i+1:]...)
				s.waiters.Add(-1)
				s.m.wakeups.With(reason).Inc()
				if e.span.On() {
					e.span.EndAttrs(tracing.A("cmd", e.j.cmd), tracing.A("board", boardLabel), tracing.A("wake", reason))
				}
				runJob(e.j)
			}
		}

		// serve handles j and then the fold: when j is a sequenced load
		// chunk whose ack is Pending and the next job already queued is a
		// chunk of the same load from the same peer, the ack is held while
		// that chunk is handled, and settle sends or folds it. The held ack
		// never waits behind anything else: serve returns a next job of any
		// other kind that the lookahead took off the queue, after the ack
		// has gone out, for the caller to handle next in its turn.
		serve := func(j job) (next job, more bool) {
			var held heldAck // held.j.load is zero while no ack is held
			for {
				reply, ok := handle(j)
				ack := loadAckOf(j, reply)
				if held.j.load != (loadKey{}) {
					s.settle(held, ack)
					held = heldAck{}
				}
				if ack.ok && ack.status == netproto.StatusPending {
					if nj, ok := queued(queue); ok {
						if nj.load == j.load {
							if nj.qspan.On() {
								nj.qspan.EndAttrs(cmds[nj.cmd].queueAttrs...)
							}
							held, j = heldAck{j: j, reply: reply}, nj
							continue
						}
						next, more = nj, true
					}
				}
				if ok {
					s.send(j.peer, reply)
				}
				s.endTrace(j)
				return next, more
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
					releaseWhere("shutdown", func(parkedWait) bool { return true })
					return
				}
				for more := true; more; {
					if j.qspan.On() { // queue wait is over; processing begins
						j.qspan.EndAttrs(cmds[j.cmd].queueAttrs...)
					}
					var taken bool
					if parked, taken = s.park(p, j, parked); taken {
						break
					}
					j, more = serve(j)
				}

			case <-wake:
				if timer != nil {
					timer.Stop()
				}
				// Look again. Result waits whose run has ended are answered
				// first, from the board that ran it. Only then does the check
				// pump, so a full swap deferred behind that run lands now,
				// whether or not a wait is parked on it — a full swap reloads
				// the board, which clears its last result. Last, every wait
				// the pump made final is answered.
				releaseWhere("done", func(e parkedWait) bool {
					return e.j.hdr.Command == netproto.CmdWaitResult && final(p, e.j.hdr.Command, false)
				})
				reconfiguring := p.ReconfigInFlight()
				releaseWhere("done", func(e parkedWait) bool { return final(p, e.j.hdr.Command, reconfiguring) })

			case <-timerC:
				// Hold expired: the handler answers StatusRunning (or the
				// live reconfiguration state) and the client re-issues the
				// wait.
				now := s.clk.Now()
				releaseWhere("expired", func(e parkedWait) bool { return !e.deadline.After(now) })
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

// final is the one rule for a held wait, deciding both whether it
// parks and when a wake releases it: the answer to a CmdWaitResult is
// final once the board is not running, the answer to a CmdWaitReconfig
// once no reconfiguration is in flight (reconfiguring is
// ReconfigInFlight's reading).
func final(p *fpx.Platform, cmd uint8, reconfiguring bool) bool {
	if cmd == netproto.CmdWaitReconfig {
		return !reconfiguring
	}
	return p.Control().State() != leon.StateRunning
}

// park takes j when it is a held wait: it parks j while its answer is
// not final, and drops it when it retransmits a wait already parked
// (the parked original will answer with the same seq). It returns the
// parked waits and whether it took j; a wait it does not take is
// answered at once through the normal handler.
func (s *Server) park(p *fpx.Platform, j job, parked []parkedWait) ([]parkedWait, bool) {
	cmd := j.hdr.Command
	if cmd != netproto.CmdWaitResult && cmd != netproto.CmdWaitReconfig {
		return parked, false
	}
	if j.hdr.HasSeq {
		for _, e := range parked {
			if e.j.hdr.HasSeq && e.j.hdr.Seq == j.hdr.Seq && e.j.src == j.src {
				s.m.drops.With("parked_dup").Inc()
				s.events.Debugf("parked wait retransmit dropped", "peer", j.peer, "seq", j.hdr.Seq)
				s.bufs.Put(j.bufp)
				s.endTrace(j)
				return parked, true
			}
		}
	}
	req, err := netproto.ParseWaitResultReq(j.hdr.Body)
	if err != nil || req.HoldMs == 0 || len(parked) >= maxParkedPerBoard {
		return parked, false
	}
	if final(p, cmd, cmd == netproto.CmdWaitReconfig && p.ReconfigInFlight()) {
		return parked, false
	}
	s.m.parked.Inc()
	s.waiters.Add(1)
	return append(parked, parkedWait{
		j:        j,
		deadline: s.clk.Now().Add(time.Duration(min(req.HoldMs, maxHoldMs)) * time.Millisecond),
		span:     j.trace.Start("park"),
	}), true
}

// loadKey names one load from one peer: the peer's address and the
// image a chunk belongs to. The zero key names none: every image has
// at least one chunk.
type loadKey struct {
	src      fpx.Peer
	addr     uint32
	totalLen uint32
	total    uint16
}

// loadAck is a reply read as a load ack: its status and the gap (the
// lowest chunk the board lacks) it advertises.
type loadAck struct {
	status uint8
	gap    int
	ok     bool // the reply was a load ack to a sequenced chunk
}

// loadAckOf reads the reply to j as a load ack; only a sequenced load
// chunk's reply is read.
func loadAckOf(j job, reply netproto.Packet) loadAck {
	if j.load == (loadKey{}) || reply.Command != netproto.CmdLoadProgram|netproto.RespFlag {
		return loadAck{}
	}
	rep, err := netproto.ParseRunReport(reply.Body)
	if err != nil {
		return loadAck{}
	}
	_, gap := netproto.LoadAckProgress(rep)
	return loadAck{status: rep.Status, gap: gap, ok: true}
}

// queued takes the next job off queue without waiting. It reports
// false when the queue is empty, or closed: the worker's next receive
// then shuts it down.
func queued(queue chan job) (job, bool) {
	select {
	case j, ok := <-queue:
		return j, ok
	default:
		return job{}, false
	}
}

// heldAck is a Pending load ack the worker keeps back while it handles
// the next queued chunk of the same load (see worker).
type heldAck struct {
	j     job // the chunk's job: its peer, its index, and its trace to end
	reply netproto.Packet
}

// settle sends or folds the held ack h once the next chunk of its load
// has been handled into a reply read as next. The ack is folded —
// counted, never sent — only when next is a load ack whose gap lies
// past the held chunk: the client's cumulative floor then settles that
// chunk too. A dedup re-ack of an earlier chunk carries an old gap, and
// any other reply answers nothing about the held chunk, so then the
// held ack goes out first, in order.
func (s *Server) settle(h heldAck, next loadAck) {
	if next.ok && (next.status == netproto.StatusPending || next.status == netproto.StatusOK) && next.gap > int(h.j.chunk) {
		s.m.acksFolded.Inc()
	} else {
		s.send(h.j.peer, h.reply)
	}
	s.endTrace(h.j)
}

// ipv4Of maps an IP to the 4 bytes of a platform peer. IPv4 and
// IPv4-mapped-IPv6 peers map exactly; anything else reports false
// (counted as drops{peer_addr} by the caller) instead of being forged
// into a loopback source.
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
