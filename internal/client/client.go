// Package client is the control-software side of Fig. 4: it compiles
// requests into UDP control packets, sends them to the reconfiguration
// server (or directly to an FPX), and interprets the responses. It
// plays the role of the paper's Java servlet UDP client, hardened for
// the transport the paper actually assumes — the open Internet, where
// datagrams drop, duplicate, reorder and truncate:
//
//   - every exchange is stamped with a sequence number (v4 header)
//     that responses echo, so duplicated or delayed responses from an
//     earlier exchange are discarded instead of being mistaken for
//     fresh ones;
//   - timed-out exchanges retransmit with exponential backoff plus
//     jitter under a bounded retry budget, and budget exhaustion
//     surfaces as ErrBoardUnreachable with partial progress attached;
//   - multi-packet loads resume from the server's advertised progress
//     instead of restarting, so an interrupted load never re-sends
//     chunks the board already holds.
//
// A Client is not safe for concurrent use; open one client per
// goroutine (they are cheap — one UDP socket each).
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// DefaultWindow is the sliding-window depth LoadProgram keeps in
// flight when Client.Window is zero: enough to fill a
// continental-RTT pipe with 1 KiB chunks without overrunning the
// server's per-board queue.
const DefaultWindow = 16

// DefaultWaitHold is the server-side hold WaitResult requests per
// CmdWaitResult exchange when Client.WaitHold is zero. Long enough
// that short runs complete within one exchange, short enough that a
// lost reply is retransmitted promptly.
const DefaultWaitHold = 500 * time.Millisecond

// ErrBoardUnreachable reports that an exchange exhausted its retry
// budget without a response. Use errors.Is to detect it; the concrete
// *UnreachableError carries the partial statistics.
var ErrBoardUnreachable = errors.New("board unreachable")

// UnreachableError is the graceful-degradation error: the retry
// budget ran out, and these are the partial stats of the attempt.
type UnreachableError struct {
	Board    uint8         // destination board
	Cmd      string        // command label (netproto.CommandName)
	Attempts int           // datagrams sent for this exchange
	Elapsed  time.Duration // wall time burned before giving up
	Last     error         // last socket/timeout error observed
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("client: board %d unreachable: %s got no response after %d attempts over %v: %v",
		e.Board, e.Cmd, e.Attempts, e.Elapsed.Round(time.Millisecond), e.Last)
}

// Is makes errors.Is(err, ErrBoardUnreachable) true.
func (e *UnreachableError) Is(target error) bool { return target == ErrBoardUnreachable }

// Unwrap exposes the underlying socket error.
func (e *UnreachableError) Unwrap() error { return e.Last }

// LoadError is a failed multi-packet load with its partial progress:
// how many chunks the server acknowledged before the transport gave
// out, plus the in-flight window state at the moment of failure so a
// windowed load reports its resume position as precisely as
// stop-and-wait did. A follow-up LoadProgram resumes from the
// server's state rather than re-sending acknowledged chunks.
type LoadError struct {
	ChunksAcked int // chunks the server confirmed holding
	ChunksTotal int // chunks in the whole image
	HighestAck  int // cumulative ack floor: every chunk below it is held
	Outstanding int // chunks sent but unacknowledged when the load died
	Window      int // sliding-window depth the load was using
	Err         error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("client: load interrupted at chunk %d/%d (window %d, %d in flight, highest ack %d): %v",
		e.ChunksAcked, e.ChunksTotal, e.Window, e.Outstanding, e.HighestAck, e.Err)
}

// Unwrap exposes the transport error (so errors.Is sees
// ErrBoardUnreachable through a LoadError).
func (e *LoadError) Unwrap() error { return e.Err }

// ServerError is a CmdError response matched to this exchange: the
// server handled the request and refused it. Cmd is the request
// command the error answers, so callers can react to specific
// rejections.
type ServerError struct {
	Cmd uint8
	Msg string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error: %s", e.Msg)
}

// clientMetrics count the client's view of the network: how often the
// unreliable channel made it retransmit, back off, give up, or wait.
type clientMetrics struct {
	requests      *metrics.CounterVec
	retries       *metrics.Counter
	timeouts      *metrics.Counter
	errors        *metrics.Counter
	unreachable   *metrics.Counter
	dupSuppressed *metrics.Counter
	backoffs      *metrics.Counter
	backoffDur    *metrics.Histogram
	resumedChunks *metrics.Counter
	resumedLoads  *metrics.Counter
	chunkResends  *metrics.Counter
	waitHolds     *metrics.Counter
	rtt           *metrics.Histogram
}

func newClientMetrics(r *metrics.Registry) clientMetrics {
	return clientMetrics{
		requests:      r.CounterVec("liquid_client_requests_total", "Requests issued, by command.", "cmd"),
		retries:       r.Counter("liquid_client_retries_total", "Requests retransmitted after a timeout."),
		timeouts:      r.Counter("liquid_client_timeouts_total", "Read deadlines that expired waiting for a response."),
		errors:        r.Counter("liquid_client_errors_total", "Exchanges that ended in an error (server CmdError or exhausted retries)."),
		unreachable:   r.Counter("liquid_client_unreachable_total", "Exchanges abandoned after the retry budget (ErrBoardUnreachable)."),
		dupSuppressed: r.Counter("liquid_client_dup_responses_total", "Responses discarded because their exchange seq was stale (duplicate or reordered)."),
		backoffs:      r.Counter("liquid_client_backoff_total", "Retransmission waits grown by the exponential backoff."),
		backoffDur:    r.Histogram("liquid_client_backoff_seconds", "Length of each backed-off retransmission wait.", metrics.DefSecondsBuckets),
		resumedChunks: r.Counter("liquid_client_load_chunks_skipped_total", "Load chunks skipped because the server already held them (resume)."),
		resumedLoads:  r.Counter("liquid_client_loads_resumed_total", "Loads that resumed from server-side progress instead of restarting."),
		chunkResends:  r.Counter("liquid_client_load_chunk_resends_total", "Load chunk datagrams retransmitted by the sliding window after a silent round."),
		waitHolds:     r.Counter("liquid_client_wait_holds_total", "Server-held waits issued (CmdWaitResult and CmdWaitReconfig exchanges)."),
		rtt:           r.Histogram("liquid_client_rtt_seconds", "Round-trip latency of successful exchanges.", metrics.DefSecondsBuckets),
	}
}

// Conn is the connected-datagram transport a Client drives: one
// remote endpoint, datagram-preserving reads. *net.UDPConn satisfies
// it for real networks; sim.Conn satisfies it for deterministic
// simulation.
type Conn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// Client is a UDP control client bound to one server node.
type Client struct {
	conn Conn
	clk  sim.Clock

	// Timeout bounds the FIRST attempt of each request/response
	// exchange; subsequent retransmissions back off exponentially.
	Timeout time.Duration
	// MaxTimeout caps the backed-off per-attempt timeout
	// (0 = 16× Timeout).
	MaxTimeout time.Duration
	// BackoffFactor is the per-retry timeout multiplier (<=1 → 2).
	BackoffFactor float64
	// Jitter is the ± fraction applied to each backed-off wait so a
	// fleet of clients never retransmits in lockstep (default 0.1;
	// negative → no jitter).
	Jitter float64
	// Retries is the retry budget: how many times a timed-out request
	// is retransmitted before the exchange fails with
	// ErrBoardUnreachable.
	Retries int
	// Board selects the destination board on a multi-board node.
	Board uint8
	// PollInterval paces a held wait the server answered early (hold
	// budget expired, waiter table full): the next wait exchange is
	// issued no sooner than this after the previous one (default 2ms —
	// well under the control plane's latency target, far above the
	// per-request cost).
	PollInterval time.Duration
	// WaitTimeout bounds how long WaitResult and WaitReconfigure wait
	// before giving up (0 = 2 minutes).
	WaitTimeout time.Duration
	// Window is the sliding-window depth LoadProgram keeps in flight
	// (0 = DefaultWindow, 1 = stop-and-wait).
	Window int
	// WaitHold is the server-side hold each CmdWaitResult or
	// CmdWaitReconfig exchange requests: the server parks the exchange
	// up to this long and answers the instant the run completes or the
	// swap lands (0 = DefaultWaitHold).
	WaitHold time.Duration

	// Tracer, when set, records one span tree per exchange: an
	// "exchange:<cmd>" span with an "attempt" child for the first
	// datagram and a "retry" child for every retransmission (so
	// counting retry spans reproduces the retries metric). High-level
	// operations (Status, LoadProgram, Start, …) wrap their exchanges
	// in an operation span.
	Tracer *tracing.Collector
	// TraceID is the 64-bit trace the client's spans join and the id
	// stamped on every outgoing packet (v4 header) so the server's
	// spans land in the same trace. Zero disables both.
	TraceID uint64

	seq uint16
	rng *rand.Rand
	op  tracing.Ctx // active operation span context, if any

	reg *metrics.Registry
	m   clientMetrics
}

// Dial connects to the server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return New(conn, nil), nil
}

// New builds a client over an already-connected transport, pacing
// every timeout, backoff and poll on clk (nil = real time). Simulated
// clusters pass a sim.Conn and the world's virtual clock; Dial is New
// over a real UDP socket and the real clock.
func New(conn Conn, clk sim.Clock) *Client {
	c := sim.Or(clk)
	reg := metrics.NewRegistry()
	return &Client{
		conn:          conn,
		clk:           c,
		Timeout:       2 * time.Second,
		BackoffFactor: 2,
		Jitter:        0.1,
		Retries:       3,
		PollInterval:  2 * time.Millisecond,
		rng:           rand.New(rand.NewSource(sim.Real.Now().UnixNano())),
		reg:           reg,
		m:             newClientMetrics(reg),
	}
}

// SetSeed re-seeds the jitter source, pinning the retransmission
// schedule (chaos tests pin it for reproducibility).
func (c *Client) SetSeed(seed int64) { c.rng = rand.New(rand.NewSource(seed)) }

// Metrics returns the client-side telemetry registry (request counts,
// retries, backoff waits, suppressed duplicates, round-trip latency).
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// traceCtx is the client's handle on the current trace (no-op when
// tracing is off).
func (c *Client) traceCtx() tracing.Ctx {
	if c.Tracer == nil || c.TraceID == 0 {
		return tracing.Ctx{}
	}
	return c.Tracer.Trace(c.TraceID)
}

// beginOp opens an operation span ("status", "load", "start", …)
// unless one is already active — nested operations (Start calling
// WaitResult calling Result) share the outermost span.
func (c *Client) beginOp(name string) tracing.SpanHandle {
	if c.op.On() {
		return tracing.SpanHandle{}
	}
	sp := c.traceCtx().Start(name)
	c.op = sp.Ctx()
	return sp
}

// endOp closes an operation span opened by beginOp.
func (c *Client) endOp(sp tracing.SpanHandle, err error) {
	if !sp.On() {
		return
	}
	c.op = tracing.Ctx{}
	status := "ok"
	if err != nil {
		status = "error"
	}
	sp.EndAttrs(tracing.A("status", status))
}

// jittered applies the ± Jitter fraction to a wait.
func (c *Client) jittered(d time.Duration) time.Duration {
	j := c.Jitter
	if j < 0 {
		return d
	}
	if j == 0 {
		j = 0.1
	}
	f := 1 + j*(2*c.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// roundTrip sends pkt and waits for a response to the same exchange,
// retransmitting with exponential backoff on timeout.
func (c *Client) roundTrip(pkt netproto.Packet) (netproto.Packet, error) {
	return c.exchangeCtx(context.Background(), pkt, time.Time{}, 0)
}

// exchangeCtx is roundTrip with the extensions the server-held wait
// needs: an optional overall deadline (zero = none) at which attempts
// stop and per-attempt read deadlines are capped — so WaitTimeout is
// honored even when every exchange in a streak times out; extraWait,
// which stretches every attempt's read deadline beyond the backoff
// schedule (a parked wait legitimately answers up to the hold late,
// which must not read as loss); and a ctx whose cancellation
// interrupts even a blocked read by expiring the socket's read
// deadline from the context's watcher goroutine.
//
// A CmdError response becomes an error; responses carrying a stale
// exchange seq (duplicates, reordered strays) are counted and
// discarded.
func (c *Client) exchangeCtx(ctx context.Context, pkt netproto.Packet, overall time.Time, extraWait time.Duration) (netproto.Packet, error) {
	c.seq++
	pkt.Board, pkt.Seq, pkt.HasSeq, pkt.TraceID = c.Board, c.seq, true, c.TraceID
	want := pkt.Command | netproto.RespFlag
	raw := pkt.Marshal()
	buf := make([]byte, 64<<10)
	c.m.requests.With(netproto.CommandName(pkt.Command)).Inc()
	start := c.clk.Now()

	// One exchange span; each datagram is an "attempt" (first) or
	// "retry" (retransmission) child. Fetching traces (CmdTraces) is
	// itself never traced, so pulling a trace does not grow it.
	var xs tracing.SpanHandle
	if pkt.Command != netproto.CmdTraces {
		xc := c.op
		if !xc.On() {
			xc = c.traceCtx()
		}
		xs = xc.Start("exchange:" + netproto.CommandName(pkt.Command))
	}
	xchild := xs.Ctx()

	wait := c.Timeout
	if wait <= 0 {
		wait = 2 * time.Second
	}
	maxWait := c.MaxTimeout
	if maxWait <= 0 {
		maxWait = 16 * wait
	}
	factor := c.BackoffFactor
	if factor <= 1 {
		factor = 2
	}

	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			// Unblock an in-flight Read: a deadline in the past makes it
			// return a timeout error immediately, and the loop below
			// notices ctx.Err() before retransmitting.
			c.conn.SetReadDeadline(c.clk.Now())
		})
		defer stop()
	}

	attempts := 0
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			xs.EndAttrs(tracing.A("status", "canceled"))
			return netproto.Packet{}, fmt.Errorf("client: exchange canceled: %w", err)
		}
		if attempt > 0 {
			c.m.retries.Inc()
			wait = time.Duration(float64(wait) * factor)
			if wait > maxWait {
				wait = maxWait
			}
			c.m.backoffs.Inc()
			c.m.backoffDur.Observe(wait.Seconds())
		}
		if !overall.IsZero() && !c.clk.Now().Before(overall) {
			break // caller's budget exhausted: do not start another attempt
		}
		aname := "attempt"
		if attempt > 0 {
			aname = "retry"
		}
		as := xchild.Start(aname)
		if as.On() && attempt > 0 {
			as = as.WithAttr("wait", wait.String())
		}
		if _, err := c.conn.Write(raw); err != nil {
			c.m.errors.Inc()
			as.EndAttrs(tracing.A("outcome", "send_error"))
			xs.EndAttrs(tracing.A("status", "error"))
			return netproto.Packet{}, fmt.Errorf("client: send: %w", err)
		}
		attempts++
		deadline := c.clk.Now().Add(c.jittered(wait) + extraWait)
		if !overall.IsZero() && deadline.After(overall) {
			deadline = overall
		}
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				c.m.errors.Inc()
				as.EndAttrs(tracing.A("outcome", "socket_error"))
				xs.EndAttrs(tracing.A("status", "error"))
				return netproto.Packet{}, err
			}
			n, err := c.conn.Read(buf)
			if err != nil {
				lastErr = err
				c.m.timeouts.Inc()
				as.EndAttrs(tracing.A("outcome", "timeout"))
				break // timeout: retransmit
			}
			resp, err := netproto.ParsePacket(buf[:n])
			if err != nil {
				continue // stray datagram
			}
			if !resp.HasSeq || resp.Seq != pkt.Seq {
				// A duplicated or delayed response from an earlier
				// exchange (or an unsequenced stray): suppress it
				// instead of mistaking it for this one's answer.
				c.m.dupSuppressed.Inc()
				continue
			}
			if resp.Board != pkt.Board {
				// A response for another board, misdelivered by the
				// network (or a chaotic relay): never this exchange's
				// answer, even if the seq happens to collide.
				c.m.dupSuppressed.Inc()
				continue
			}
			if resp.Command == netproto.CmdError {
				er, perr := netproto.ParseErrorResp(resp.Body)
				if perr != nil {
					c.m.errors.Inc()
					as.EndAttrs(tracing.A("outcome", "bad_error_resp"))
					xs.EndAttrs(tracing.A("status", "error"))
					return netproto.Packet{}, fmt.Errorf("client: malformed error response: %w", perr)
				}
				if er.Code != pkt.Command {
					continue // stale error for an earlier request
				}
				c.m.errors.Inc()
				as.EndAttrs(tracing.A("outcome", "server_error"))
				xs.EndAttrs(tracing.A("status", "error"), tracing.A("error", er.Msg))
				return netproto.Packet{}, &ServerError{Cmd: pkt.Command, Msg: er.Msg}
			}
			if resp.Command != want {
				continue // stale response from a retransmitted earlier request
			}
			body := make([]byte, len(resp.Body))
			copy(body, resp.Body)
			resp.Body = body
			c.m.rtt.Observe(c.clk.Since(start).Seconds())
			as.EndAttrs(tracing.A("outcome", "ok"))
			if xs.On() {
				xs.EndAttrs(tracing.A("status", "ok"),
					tracing.A("attempts", fmt.Sprintf("%d", attempts)))
			}
			return resp, nil
		}
	}
	c.m.errors.Inc()
	c.m.unreachable.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("deadline before first attempt")
	}
	xs.EndAttrs(tracing.A("status", "unreachable"))
	return netproto.Packet{}, &UnreachableError{
		Board:    c.Board,
		Cmd:      netproto.CommandName(pkt.Command),
		Attempts: attempts,
		Elapsed:  c.clk.Since(start),
		Last:     lastErr,
	}
}

// Status queries the controller state ("to check if LEON has started
// up").
func (c *Client) Status() (st netproto.StatusResp, err error) {
	op := c.beginOp("status")
	defer func() { c.endOp(op, err) }()
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdStatus})
	if err != nil {
		return netproto.StatusResp{}, err
	}
	return netproto.ParseStatusResp(resp.Body)
}

// LoadProgram uploads an image to the given SRAM address, splitting it
// into sequence-numbered chunks and keeping a sliding window of them
// (Window, default 16) in flight, so a load costs ~chunks/window round
// trips instead of one per chunk. Loads are idempotent and resumable:
// every ack carries the server's reassembly progress, so when a chunk
// the board already holds is re-sent — a retransmission, or this call
// resuming an earlier interrupted load — the server re-acks without
// re-applying and the window skips ahead to the first chunk the board
// is missing. A silent round (no ack within the backed-off timeout)
// triggers a go-back resend of everything outstanding above the
// cumulative ack floor, byte-identical to the originals so the
// server's dedup window recognizes the retransmissions. On failure the
// returned error is a *LoadError carrying the acknowledged-chunk count
// and the in-flight window state.
func (c *Client) LoadProgram(addr uint32, image []byte) (err error) {
	op := c.beginOp("load")
	defer func() { c.endOp(op, err) }()
	window := c.Window
	if window <= 0 {
		window = DefaultWindow
	}
	return c.loadWindowed(netproto.ChunkImage(addr, image), window)
}

// loadWindowed pumps the chunk sequence through the sliding window.
// The first chunk travels alone (a probe): if the server holds
// progress from an interrupted load, its dup-ack reveals the real
// resume point before the window sprays chunks the board already has.
func (c *Client) loadWindowed(chunks []netproto.LoadChunk, window int) error {
	n := len(chunks)
	if n == 0 {
		return nil
	}

	var (
		seqs     = make([]uint16, n)    // exchange seq pinned at first send
		raws     = make([][]byte, n)    // exact datagram bytes (resends are identical)
		sentAt   = make([]time.Time, n) // last transmission time, for RTT
		assigned = make([]bool, n)      // sent at least once
		ackedCh  = make([]bool, n)      // acknowledged (directly or by cumulative ack)
		chspan   = make([]tracing.SpanHandle, n)
		pend     = map[uint16]int{} // outstanding exchange seq → chunk index
		base     = 0                // every chunk below base is held by the server
		next     = 0                // lowest chunk not yet considered for sending
		acked    = 0                // highest received count the server advertised
		resumed  = false
		firstAck = false
		attempts = 0
		start    = c.clk.Now()
		lastErr  error
	)

	fail := func(cause error) error {
		for i, sp := range chspan {
			if sp.On() && !ackedCh[i] {
				sp.EndAttrs(tracing.A("status", "error"))
			}
		}
		return &LoadError{
			ChunksAcked: acked, ChunksTotal: n,
			HighestAck: base, Outstanding: len(pend), Window: window,
			Err: cause,
		}
	}

	send := func(i int) error {
		if !assigned[i] {
			c.seq++
			seqs[i] = c.seq
			raws[i] = netproto.Packet{
				Command: netproto.CmdLoadProgram,
				Board:   c.Board,
				Seq:     c.seq,
				HasSeq:  true,
				TraceID: c.TraceID,
				Body:    chunks[i].Marshal(),
			}.Marshal()
			assigned[i] = true
			pend[seqs[i]] = i
			c.m.requests.With("load").Inc()
			xc := c.op
			if !xc.On() {
				xc = c.traceCtx()
			}
			if xc.On() {
				chspan[i] = xc.Start("exchange:load").WithAttr("chunk", fmt.Sprintf("%d/%d", i+1, n))
			}
			chspan[i].Ctx().Start("attempt").End()
		} else {
			c.m.retries.Inc()
			c.m.chunkResends.Inc()
			chspan[i].Ctx().Start("retry").End()
		}
		if _, werr := c.conn.Write(raws[i]); werr != nil {
			c.m.errors.Inc()
			return fmt.Errorf("client: send: %w", werr)
		}
		sentAt[i] = c.clk.Now()
		attempts++
		return nil
	}

	// advance lifts the cumulative floor to the max of the server's
	// advertised next-needed chunk and the locally-acked contiguous
	// prefix, retiring outstanding exchanges below it and skipping
	// never-sent chunks the server already holds (resume).
	advance := func(serverNext int) {
		nb := base
		if serverNext > nb {
			nb = serverNext
		}
		if nb > n {
			nb = n
		}
		for nb < n && ackedCh[nb] {
			nb++
		}
		if nb <= base {
			return
		}
		for i := base; i < nb; i++ {
			switch {
			case !assigned[i]:
				c.m.resumedChunks.Inc()
				if !resumed {
					resumed = true
					c.m.resumedLoads.Inc()
				}
			case !ackedCh[i]:
				delete(pend, seqs[i])
				ackedCh[i] = true
				if chspan[i].On() {
					chspan[i].EndAttrs(tracing.A("status", "ok"), tracing.A("ack", "cumulative"))
				}
			}
		}
		base = nb
		if next < base {
			next = base
		}
	}

	wait := c.Timeout
	if wait <= 0 {
		wait = 2 * time.Second
	}
	maxWait := c.MaxTimeout
	if maxWait <= 0 {
		maxWait = 16 * wait
	}
	factor := c.BackoffFactor
	if factor <= 1 {
		factor = 2
	}
	consec := 0 // consecutive silent rounds; bounded by Retries
	buf := make([]byte, 64<<10)

	for {
		// Top up the window (a single probe until the first ack).
		cw := window
		if !firstAck {
			cw = 1
		}
		for next < n && len(pend) < cw {
			if next < base || ackedCh[next] {
				next++
				continue
			}
			if err := send(next); err != nil {
				return fail(err)
			}
			next++
		}
		if base >= n {
			return nil
		}

		// Wait for one acknowledgment (strays don't reset the clock).
		deadline := c.clk.Now().Add(c.jittered(wait))
		timedOut := false
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				c.m.errors.Inc()
				return fail(err)
			}
			nr, rerr := c.conn.Read(buf)
			if rerr != nil {
				lastErr = rerr
				c.m.timeouts.Inc()
				timedOut = true
				break
			}
			resp, perr := netproto.ParsePacket(buf[:nr])
			if perr != nil || !resp.HasSeq {
				continue // stray datagram
			}
			if resp.Board != c.Board {
				c.m.dupSuppressed.Inc()
				continue
			}
			idx, ok := pend[resp.Seq]
			if !ok {
				// An ack for a chunk already retired (a duplicated or
				// reordered response), or a stray from an earlier
				// exchange: suppress.
				c.m.dupSuppressed.Inc()
				continue
			}
			if resp.Command == netproto.CmdError {
				er, eperr := netproto.ParseErrorResp(resp.Body)
				if eperr != nil {
					c.m.errors.Inc()
					return fail(fmt.Errorf("client: malformed error response: %w", eperr))
				}
				if er.Code != netproto.CmdLoadProgram {
					continue // stale error for an earlier request
				}
				c.m.errors.Inc()
				return fail(&ServerError{Cmd: netproto.CmdLoadProgram, Msg: er.Msg})
			}
			if resp.Command != netproto.CmdLoadProgram|netproto.RespFlag {
				continue // stale response from an earlier exchange
			}
			rep, rperr := netproto.ParseRunReport(resp.Body)
			if rperr != nil {
				return fail(fmt.Errorf("client: load chunk %d/%d: %w", idx+1, n, rperr))
			}
			if rep.Status != netproto.StatusOK && rep.Status != netproto.StatusPending {
				return fail(fmt.Errorf("client: load chunk %d/%d: status %d", idx+1, n, rep.Status))
			}
			c.m.rtt.Observe(c.clk.Since(sentAt[idx]).Seconds())
			delete(pend, seqs[idx])
			ackedCh[idx] = true
			if chspan[idx].On() {
				chspan[idx].EndAttrs(tracing.A("status", "ok"))
			}
			received, serverNext := netproto.LoadAckProgress(rep)
			if received > acked {
				acked = received
			}
			firstAck = true
			consec = 0
			wait = c.Timeout
			if wait <= 0 {
				wait = 2 * time.Second
			}
			advance(serverNext)
			if rep.Status == netproto.StatusOK {
				// The server confirmed the complete image (the OK ack is
				// only ever sent for the chunk that finishes reassembly).
				for i, sp := range chspan {
					if sp.On() && !ackedCh[i] {
						sp.EndAttrs(tracing.A("status", "ok"))
					}
				}
				return nil
			}
			break
		}

		if timedOut {
			consec++
			if consec > c.Retries {
				c.m.errors.Inc()
				c.m.unreachable.Inc()
				return fail(&UnreachableError{
					Board:    c.Board,
					Cmd:      netproto.CommandName(netproto.CmdLoadProgram),
					Attempts: attempts,
					Elapsed:  c.clk.Since(start),
					Last:     lastErr,
				})
			}
			// Back off the next round's clock, then go back from the
			// cumulative ack floor: resend everything outstanding.
			wait = time.Duration(float64(wait) * factor)
			if wait > maxWait {
				wait = maxWait
			}
			c.m.backoffs.Inc()
			c.m.backoffDur.Observe(wait.Seconds())
			for i := base; i < next; i++ {
				if assigned[i] && !ackedCh[i] {
					if err := send(i); err != nil {
						return fail(err)
					}
				}
			}
		}
	}
}

// Start executes the loaded program (entry 0 = last load address) and
// blocks until it completes, returning the cycle-counter report: the
// StartAsync ack, then a held WaitResult.
func (c *Client) Start(entry uint32, maxCycles uint64) (netproto.RunReport, error) {
	if err := c.StartAsync(entry, maxCycles); err != nil {
		return netproto.RunReport{}, err
	}
	return c.WaitResult()
}

// StartAsync starts the loaded program and returns as soon as the board
// acknowledges the handoff — the "started" ack of the asynchronous
// control plane. Poll Status (CurCycles advances while running) and
// collect the report with Result or WaitResult.
func (c *Client) StartAsync(entry uint32, maxCycles uint64) (err error) {
	op := c.beginOp("start")
	defer func() { c.endOp(op, err) }()
	req := netproto.StartReq{Entry: entry, MaxCycles: maxCycles}
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdStartLEON, Body: req.Marshal()})
	if err != nil {
		return err
	}
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		return err
	}
	if rep.Status != netproto.StatusRunning && rep.Status != netproto.StatusOK {
		return fmt.Errorf("client: start ack status %d", rep.Status)
	}
	return nil
}

// Result fetches the run report with a single round trip. While the run
// is still in flight the report has Status == StatusRunning and a live
// cycle counter; once complete it is the final report (idempotent — the
// server keeps answering with the last result).
func (c *Client) Result() (rep netproto.RunReport, err error) {
	op := c.beginOp("result")
	defer func() { c.endOp(op, err) }()
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdResult})
	if err != nil {
		return netproto.RunReport{}, err
	}
	return netproto.ParseRunReport(resp.Body)
}

// WaitResult waits for the run to leave StatusRunning and returns the
// final report. Each CmdWaitResult exchange asks the server to park the
// reply up to WaitHold and answer the instant the run completes, so
// completion latency is one network trip rather than a poll interval.
// WaitTimeout (default 2 minutes) bounds the whole wait, including
// streaks where every exchange is lost: the retransmission schedule is
// capped at the overall deadline, so the wait never overshoots it by a
// retry cycle.
func (c *Client) WaitResult() (netproto.RunReport, error) {
	return c.WaitResultContext(context.Background())
}

// WaitResultContext is WaitResult bounded additionally by ctx: it
// returns early with ctx.Err() when the context is canceled or its
// deadline (if sooner than WaitTimeout) passes. Cancellation
// interrupts even a server-held exchange mid-read.
func (c *Client) WaitResultContext(ctx context.Context) (rep netproto.RunReport, err error) {
	op := c.beginOp("wait_result")
	defer func() { c.endOp(op, err) }()
	err = c.heldWait(ctx, netproto.CmdWaitResult, "run", func(body []byte) (bool, error) {
		var perr error
		rep, perr = netproto.ParseRunReport(body)
		return rep.Status != netproto.StatusRunning, perr
	})
	return rep, err
}

// heldWait is the one server-held wait loop behind WaitResultContext
// and WaitReconfigure. It re-issues cmd — each exchange asking the
// server to hold the reply up to WaitHold — until done reports the
// answer's body final. A reply that comes back sooner than
// PollInterval (the server could not park it) paces the next exchange
// at PollInterval. WaitTimeout and ctx bound the whole wait; what names
// the awaited outcome in errors.
func (c *Client) heldWait(ctx context.Context, cmd uint8, what string, done func(body []byte) (bool, error)) error {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	limit := c.WaitTimeout
	if limit <= 0 {
		limit = 2 * time.Minute
	}
	hold := c.WaitHold
	if hold <= 0 {
		hold = DefaultWaitHold
	}
	deadline := c.clk.Now().Add(limit)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("client: wait canceled: %w", err)
		}
		h := hold
		if remain := c.clk.Until(deadline); remain < h {
			h = remain // never ask the server to outlast our own budget
		}
		if h < time.Millisecond {
			h = time.Millisecond
		}
		c.m.waitHolds.Inc()
		before := c.clk.Now()
		// The server may delay the reply up to h, so every read
		// deadline is stretched by h beyond the retransmission schedule.
		req := netproto.WaitResultReq{HoldMs: uint32(h / time.Millisecond)}
		resp, err := c.exchangeCtx(ctx, netproto.Packet{Command: cmd, Body: req.Marshal()}, deadline, h)
		held := c.clk.Since(before)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("client: wait canceled: %w", ctx.Err())
			}
			var ue *UnreachableError
			if errors.As(err, &ue) && !c.clk.Now().Before(deadline) {
				return fmt.Errorf("client: %s still unconfirmed after %v: %w", what, limit, err)
			}
			return err
		}
		if fin, err := done(resp.Body); fin || err != nil {
			return err
		}
		remain := c.clk.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("client: %s still in flight after %v", what, limit)
		}
		if held >= interval {
			// The server held the exchange and the wait outlasted the
			// hold: re-issue immediately; the exchange itself paced us.
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: wait canceled: %w", ctx.Err())
		case <-c.clk.After(min(interval, remain)):
		}
	}
}

// ReadMemory reads n bytes from addr, issuing as many requests as the
// per-response cap requires.
func (c *Client) ReadMemory(addr uint32, n int) ([]byte, error) {
	const chunk = 32 << 10
	out := make([]byte, 0, n)
	for n > 0 {
		ask := n
		if ask > chunk {
			ask = chunk
		}
		req := netproto.MemReq{Addr: addr, Length: uint32(ask)}
		resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdReadMemory, Body: req.Marshal()})
		if err != nil {
			return nil, err
		}
		mr, err := netproto.ParseMemResp(resp.Body)
		if err != nil {
			return nil, err
		}
		if len(mr.Data) != ask {
			return nil, fmt.Errorf("client: short read: %d of %d bytes", len(mr.Data), ask)
		}
		out = append(out, mr.Data...)
		addr += uint32(ask)
		n -= ask
	}
	return out, nil
}

// WriteMemory stores bytes at addr.
func (c *Client) WriteMemory(addr uint32, data []byte) error {
	req := netproto.MemReq{Addr: addr, Data: data}
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdWriteMemory, Body: req.Marshal()})
	if err != nil {
		return err
	}
	_, err = netproto.ParseMemResp(resp.Body)
	return err
}

// Reconfigure asks the platform to swap in a different architecture
// configuration (the liquid step) and blocks until the swap lands.
// spec is the platform-defined configuration description. It is
// ReconfigureAsync followed, unless the ack already carries the
// outcome, by WaitReconfigure.
func (c *Client) Reconfigure(spec []byte) (err error) {
	op := c.beginOp("reconfigure")
	defer func() { c.endOp(op, err) }()
	st, err := c.ReconfigureAsync(spec)
	if err != nil {
		return err
	}
	if !st.Terminal() {
		if st, err = c.WaitReconfigure(context.Background()); err != nil {
			return err
		}
	}
	if st.State != netproto.ReconfigApplied {
		if st.Msg != "" {
			return fmt.Errorf("client: reconfigure failed: %s", st.Msg)
		}
		return fmt.Errorf("client: reconfigure ended %s", netproto.ReconfigStateName(st.State))
	}
	return nil
}

// ReconfigureAsync sends one CmdReconfigure exchange and returns the
// server's immediate ack as a ticket status: Applied for a cache hit
// on an idle board (the millisecond path), Queued/Synthesizing when
// the modelled tool run proceeds in the background (follow up with
// ReconfigStatus or WaitReconfigure).
func (c *Client) ReconfigureAsync(spec []byte) (st netproto.ReconfigStatusResp, err error) {
	op := c.beginOp("reconfigure")
	defer func() { c.endOp(op, err) }()
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdReconfigure, Body: spec})
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	return netproto.ReconfigAckInfo(rep), nil
}

// Prewarm asks the node to pre-synthesize the given configuration
// specs into its reconfiguration cache without swapping any of them
// in, returning how many tickets the server queued. Synthesis
// proceeds on the server's shared worker pool; later Reconfigure
// calls to these points become cache hits.
func (c *Client) Prewarm(specs []json.RawMessage) (queued uint32, err error) {
	op := c.beginOp("prewarm")
	defer func() { c.endOp(op, err) }()
	body, err := json.Marshal(struct {
		Prewarm []json.RawMessage `json:"prewarm"`
	}{specs})
	if err != nil {
		return 0, fmt.Errorf("client: prewarm spec: %w", err)
	}
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdReconfigure, Body: body})
	if err != nil {
		return 0, err
	}
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		return 0, err
	}
	return netproto.ReconfigAckInfo(rep).Queued, nil
}

// ReconfigStatus polls the board's asynchronous reconfiguration state
// with a single round trip. The poll also pumps: an image whose
// synthesis completed while the board was busy is swapped in by this
// very exchange.
func (c *Client) ReconfigStatus() (st netproto.ReconfigStatusResp, err error) {
	op := c.beginOp("reconfig_status")
	defer func() { c.endOp(op, err) }()
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdReconfigStatus})
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	return netproto.ParseReconfigStatusResp(resp.Body)
}

// WaitReconfigure blocks until the asynchronous reconfiguration
// reaches a terminal state and returns it. Like WaitResult it is a
// server-held wait: each CmdWaitReconfig exchange parks on the board
// worker up to WaitHold and answers the instant the swap lands.
// WaitTimeout bounds the whole wait; ctx cancels it early, interrupting
// even a held exchange.
func (c *Client) WaitReconfigure(ctx context.Context) (st netproto.ReconfigStatusResp, err error) {
	op := c.beginOp("wait_reconfig")
	defer func() { c.endOp(op, err) }()
	err = c.heldWait(ctx, netproto.CmdWaitReconfig, "reconfiguration", func(body []byte) (bool, error) {
		var perr error
		st, perr = netproto.ParseReconfigStatusResp(body)
		return st.Terminal() || st.State == netproto.ReconfigNone, perr
	})
	return st, err
}

// GetConfig fetches the platform's active configuration description.
func (c *Client) GetConfig() ([]byte, error) {
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdGetConfig})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// TraceReport pulls the instrumented-trace summary of the last run
// (JSON; see core.TraceReport for the schema).
func (c *Client) TraceReport() ([]byte, error) {
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdTraceReport})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Traces pulls the server's exchange-trace spans over the control
// channel (CmdTraces). id selects one trace (the server removes it
// from its ring — fetch once and keep it); zero asks for all recently
// completed traces. The result is JSON: an array of tracing.TraceData
// documents, mergeable with the client's own collector output via
// tracing.ChromeJSON. The fetch exchange itself is never traced.
func (c *Client) Traces(id uint64) ([]tracing.TraceData, error) {
	req := netproto.TracesReq{TraceID: id}
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdTraces, Body: req.Marshal()})
	if err != nil {
		return nil, err
	}
	tr, err := netproto.ParseTracesResp(resp.Body)
	if err != nil {
		return nil, err
	}
	if tr.Status != netproto.StatusOK {
		return nil, fmt.Errorf("client: traces status %d", tr.Status)
	}
	var out []tracing.TraceData
	if err := json.Unmarshal(tr.JSON, &out); err != nil {
		return nil, fmt.Errorf("client: traces payload: %w", err)
	}
	return out, nil
}

// Stats pulls the server node's telemetry snapshot over the control
// channel (JSON; the same document the HTTP /statusz endpoint serves
// under "metrics"). Unmarshals into metrics.Snapshot.
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.roundTrip(netproto.Packet{Command: netproto.CmdStats})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// RunProgram is the whole §2.6 flow in one call: load, start, and read
// back resultLen bytes from resultAddr (skipped when resultLen is 0).
func (c *Client) RunProgram(addr uint32, image []byte, entry uint32, resultAddr uint32, resultLen int) (netproto.RunReport, []byte, error) {
	if err := c.LoadProgram(addr, image); err != nil {
		return netproto.RunReport{}, nil, err
	}
	rep, err := c.Start(entry, 0)
	if err != nil {
		return rep, nil, err
	}
	if resultLen <= 0 {
		return rep, nil, nil
	}
	data, err := c.ReadMemory(resultAddr, resultLen)
	return rep, data, err
}
