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
// One delivery engine (deliver) does all of this for every exchange: a
// verb's request is a batch of one with a window of one, and a load is
// a batch of chunks kept in flight through a sliding window. Both share
// the reply filter, the backoff schedule, the retry budget and the span
// accounting, and every reply is read into the client's one receive
// buffer.
//
// A Client is not safe for concurrent use; open one client per
// goroutine (they are cheap — one UDP socket and one 64 KiB receive
// buffer each).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// DefaultWindow is the sliding-window depth LoadProgram keeps in
// flight when Client.Window is zero: enough to fill a
// continental-RTT pipe with frame-sized chunks (netproto.MaxChunkData
// bytes) without overrunning the server's per-board queue.
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
	buf []byte      // every reply is read here; bodies alias it until the next read
	fs  []flight    // deliver's flight table, cleared when its batch ends

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
		buf:           make([]byte, 64<<10),
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

// roundTrip is one request/response exchange of cmd: a batch of one
// (see deliver). It returns the reply body, copied out of the read
// buffer.
func (c *Client) roundTrip(cmd uint8, body []byte) ([]byte, error) {
	return c.exchangeCtx(context.Background(), cmd, body, time.Time{}, 0)
}

// exchangeCtx is roundTrip with the bounds a server-held wait needs:
// an overall deadline (zero = none) and a hold that stretches every
// read (see batch), and a ctx whose cancellation interrupts even a
// blocked read.
func (c *Client) exchangeCtx(ctx context.Context, cmd uint8, body []byte, overall time.Time, hold time.Duration) ([]byte, error) {
	var reply []byte
	_, err := c.deliver(ctx, batch{
		cmd: cmd, n: 1, window: 1, overall: overall, hold: hold,
		datagram: func(_ int, h netproto.Packet) []byte {
			h.Body = body
			return h.Marshal()
		},
		reply: func(_ int, b []byte) (int, error) {
			reply = bytes.Clone(b) // b aliases the buffer the next read reuses
			return 1, nil
		},
	})
	return reply, err
}

// batch is one call of the delivery engine: n requests of one command,
// sent in index order and answered in any order.
type batch struct {
	cmd    uint8
	n      int
	window int // requests outstanding at most
	// datagram encodes request i under header h, whose Body is unset:
	// built once, at the request's first send.
	datagram func(i int, h netproto.Packet) []byte
	// reply takes the reply to request i, whose body aliases the
	// client's read buffer, and returns the floor the node reports:
	// every request below it is held, and n or more ends the batch. An
	// error fails the batch.
	reply func(i int, body []byte) (floor int, err error)
	// overall, when set, is the deadline at which the batch stops
	// resending; every read deadline is capped at it.
	overall time.Time
	// hold stretches every read deadline beyond the backoff schedule: a
	// parked wait legitimately answers up to the hold late, which must
	// not read as loss.
	hold time.Duration
}

// delivery is where a batch stopped.
type delivery struct {
	floor       int // every request below it is held by the node
	outstanding int // requests sent and unanswered at the stop
	resent      int // datagrams retransmitted
	skipped     int // requests the floor passed before their first send
}

// flight is one request's delivery state. Its seq and datagram are
// stamped at first send, so every resend is byte-identical and the
// node's dedup window answers it without re-applying.
type flight struct {
	seq   uint16
	raw   []byte
	first time.Time // first send: the RTT's start
	sends int
	state uint8
	xs    tracing.SpanHandle // "exchange:<cmd>"
	att   tracing.SpanHandle // the open "attempt" or "retry" span, if any
}

// Request states within a batch.
const (
	unsent uint8 = iota
	inFlight
	settled
)

// endAttempt closes the open attempt or retry span, once.
func (f *flight) endAttempt(outcome string) {
	if f.att.On() {
		f.att.EndAttrs(tracing.A("outcome", outcome))
		f.att = tracing.SpanHandle{}
	}
}

// end settles the request, closing its open attempt span with outcome
// and its exchange span with status.
func (f *flight) end(outcome, status string) {
	f.endAttempt(outcome)
	f.state = settled
	if f.xs.On() {
		f.xs.EndAttrs(tracing.A("status", status), tracing.A("attempts", strconv.Itoa(f.sends)))
	}
}

// flightTable returns the client's flight table sized for n requests.
// deliver reuses it from batch to batch, as it does the read buffer,
// and clears it when the batch ends so no datagram outlives its batch.
func (c *Client) flightTable(n int) []flight {
	if cap(c.fs) < n {
		c.fs = make([]flight, n)
	}
	return c.fs[:n]
}

// deliver is the client's one delivery engine. It sends b's requests
// in index order, keeping at most b.window outstanding (one while the
// first request probes the node), matches each reply by board and
// exchange seq, and hands it to b.reply, whose floor settles every
// request below it: outstanding ones retire, unsent ones are skipped.
// The batch ends only when a floor reaches n; once every request is
// answered and none did, nothing left to send can raise it, and the
// batch fails at once. A round with no reply inside the backed-off
// timeout resends every outstanding request; the board is unreachable
// after Retries such rounds beyond the first, or once b.overall
// passes. A CmdError answering b.cmd fails the batch. Every read lands
// in the client's one buffer.
func (c *Client) deliver(ctx context.Context, b batch) (delivery, error) {
	base := c.Timeout
	if base <= 0 {
		base = 2 * time.Second
	}
	maxWait := c.MaxTimeout
	if maxWait <= 0 {
		maxWait = 16 * base
	}
	factor := c.BackoffFactor
	if factor <= 1 {
		factor = 2
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			// Unblock an in-flight Read: a deadline in the past makes it
			// return a timeout error at once, and the silent round that
			// follows notices ctx.Err() before resending.
			c.conn.SetReadDeadline(c.clk.Now())
		})
		defer stop()
	}
	// Each request is an "exchange:<cmd>" span with an "attempt" child
	// for its first datagram and a "retry" child per resend. Fetching
	// traces (CmdTraces) is never traced, so pulling a trace does not
	// grow it.
	xc := c.op
	if !xc.On() {
		xc = c.traceCtx()
	}
	if b.cmd == netproto.CmdTraces {
		xc = tracing.Ctx{}
	}
	name := netproto.CommandName(b.cmd)

	var (
		d       delivery
		fs      = c.flightTable(b.n)
		out     []int // outstanding requests, in send order
		next    int   // lowest request not yet sent
		sent    int   // datagrams written
		silent  int   // silent rounds in a row
		probing = true
		wait    = base
		start   = c.clk.Now()
		lastErr error
	)
	defer clear(fs)
	fail := func(outcome, status string, err error) (delivery, error) {
		if status != "canceled" {
			c.m.errors.Inc()
		}
		for _, i := range out {
			fs[i].end(outcome, status)
		}
		d.outstanding = len(out)
		return d, err
	}
	send := func(i int) error {
		f := &fs[i]
		if f.sends == 0 {
			c.seq++
			f.seq = c.seq
			f.raw = b.datagram(i, netproto.Packet{Command: b.cmd, Board: c.Board, Seq: c.seq, HasSeq: true, TraceID: c.TraceID})
			f.first = c.clk.Now()
			f.state = inFlight
			if xc.On() {
				f.xs = xc.Start("exchange:" + name)
				if b.n > 1 {
					f.xs = f.xs.WithAttr("chunk", fmt.Sprintf("%d/%d", i+1, b.n))
				}
			}
			f.att = f.xs.Ctx().Start("attempt")
		} else if f.att = f.xs.Ctx().Start("retry"); f.att.On() {
			f.att = f.att.WithAttr("wait", wait.String())
		}
		if _, err := c.conn.Write(f.raw); err != nil {
			return fmt.Errorf("client: send: %w", err)
		}
		if f.sends == 0 {
			c.m.requests.With(name).Inc()
		} else {
			c.m.retries.Inc()
			d.resent++
		}
		f.sends++
		sent++
		return nil
	}
	// lift raises the floor to to (at most n), settling what it passes.
	// A request its own reply settled stays above the floor until the
	// node's floor passes it: that reply says the node held it, not that
	// it still does.
	lift := func(to int) {
		to = max(d.floor, min(to, b.n))
		for i := d.floor; i < to; i++ {
			switch f := &fs[i]; f.state {
			case unsent:
				d.skipped++
			case inFlight:
				f.xs = f.xs.WithAttr("ack", "cumulative")
				f.end("cumulative", "ok")
			}
		}
		out = slices.DeleteFunc(out, func(i int) bool { return i < to })
		d.floor = to
		next = max(next, to)
	}

	for d.floor < b.n {
		cw := b.window
		if probing {
			cw = 1
		}
		for next < b.n && len(out) < cw {
			out = append(out, next)
			next++
			if err := send(out[len(out)-1]); err != nil {
				return fail("send_error", "error", err)
			}
		}
		if len(out) == 0 {
			// Every request is answered, yet the node's floor stops short
			// (a load whose reassembly restarted under it): no resend can
			// raise it.
			return fail("unsettled", "error", fmt.Errorf("client: %s: all %d requests answered, but the node's floor stopped at %d", name, b.n, d.floor))
		}
		deadline := c.clk.Now().Add(c.jittered(wait) + b.hold)
		if !b.overall.IsZero() && deadline.After(b.overall) {
			deadline = b.overall
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return fail("socket_error", "error", err)
		}
		replied := false
		for !replied {
			nr, err := c.conn.Read(c.buf)
			if err != nil {
				lastErr = err
				break
			}
			resp, err := netproto.ParsePacket(c.buf[:nr])
			if err != nil {
				continue // stray datagram
			}
			k := -1
			if resp.HasSeq && resp.Board == c.Board {
				for j, i := range out {
					if fs[i].seq == resp.Seq {
						k = j
						break
					}
				}
			}
			if k < 0 {
				// A duplicated or delayed reply to an earlier request, an
				// unsequenced stray, or a reply for another board
				// misdelivered by the network: never this batch's answer,
				// even if the seq happens to collide.
				c.m.dupSuppressed.Inc()
				continue
			}
			f := &fs[out[k]]
			if resp.Command == netproto.CmdError {
				er, err := netproto.ParseErrorResp(resp.Body)
				if err != nil {
					return fail("bad_error_resp", "error", fmt.Errorf("client: malformed error response: %w", err))
				}
				if er.Code != b.cmd {
					continue // stale error for an earlier request
				}
				f.xs = f.xs.WithAttr("error", er.Msg)
				return fail("server_error", "error", &ServerError{Cmd: b.cmd, Msg: er.Msg})
			}
			if resp.Command != b.cmd|netproto.RespFlag {
				continue // stale reply to an earlier request
			}
			floor, err := b.reply(out[k], resp.Body)
			if err != nil {
				return fail("bad_reply", "error", err)
			}
			c.m.rtt.Observe(c.clk.Since(f.first).Seconds())
			f.end("ok", "ok")
			out = slices.Delete(out, k, k+1)
			probing, silent, wait = false, 0, base
			lift(floor)
			replied = true
		}
		if replied {
			continue
		}

		// A silent round: back off, then resend everything outstanding.
		c.m.timeouts.Inc()
		for _, i := range out {
			fs[i].endAttempt("timeout")
		}
		if err := ctx.Err(); err != nil {
			return fail("canceled", "canceled", fmt.Errorf("client: exchange canceled: %w", err))
		}
		silent++
		if silent > c.Retries || !b.overall.IsZero() && !c.clk.Now().Before(b.overall) {
			c.m.unreachable.Inc()
			return fail("timeout", "unreachable", &UnreachableError{
				Board: c.Board, Cmd: name, Attempts: sent, Elapsed: c.clk.Since(start), Last: lastErr,
			})
		}
		wait = min(time.Duration(float64(wait)*factor), maxWait)
		c.m.backoffs.Inc()
		c.m.backoffDur.Observe(wait.Seconds())
		for _, i := range out {
			if err := send(i); err != nil {
				return fail("send_error", "error", err)
			}
		}
	}
	return d, nil
}

// Status queries the controller state ("to check if LEON has started
// up").
func (c *Client) Status() (st netproto.StatusResp, err error) {
	op := c.beginOp("status")
	defer func() { c.endOp(op, err) }()
	reply, err := c.roundTrip(netproto.CmdStatus, nil)
	if err != nil {
		return netproto.StatusResp{}, err
	}
	return netproto.ParseStatusResp(reply)
}

// LoadProgram uploads an image to the given SRAM address, splitting it
// into sequence-numbered chunks and delivering them as one batch with a
// sliding window (Window, default 16) in flight, so a load costs
// ~chunks/window round trips instead of one per chunk. The first chunk
// travels alone: if the server holds progress from an interrupted load,
// its ack reveals the resume point before the window sprays chunks the
// board already has. Loads are idempotent and resumable: every ack
// carries the server's reassembly progress, and its lowest gap lifts
// the batch's floor, so chunks the board already holds are never sent
// and a re-sent one is re-acked without being re-applied. A silent
// round resends everything outstanding, byte-identical to the
// originals so the server's dedup window recognizes the
// retransmissions. On failure the returned error is a *LoadError
// carrying the acknowledged-chunk count and the in-flight window state.
func (c *Client) LoadProgram(addr uint32, image []byte) (err error) {
	op := c.beginOp("load")
	defer func() { c.endOp(op, err) }()
	window := c.Window
	if window <= 0 {
		window = DefaultWindow
	}
	chunks := netproto.ChunkImage(addr, image)
	n := len(chunks)
	acked := 0 // the most chunks the server has reported holding
	d, err := c.deliver(context.Background(), batch{
		cmd: netproto.CmdLoadProgram, n: n, window: window,
		// Each chunk is encoded straight into its datagram: one buffer
		// per chunk, no intermediate body.
		datagram: func(i int, h netproto.Packet) []byte { return chunks[i].MarshalPacket(h) },
		reply: func(i int, body []byte) (int, error) {
			rep, err := netproto.ParseRunReport(body)
			if err != nil {
				return 0, fmt.Errorf("client: load chunk %d/%d: %w", i+1, n, err)
			}
			if rep.Status != netproto.StatusOK && rep.Status != netproto.StatusPending {
				return 0, fmt.Errorf("client: load chunk %d/%d: status %d", i+1, n, rep.Status)
			}
			received, gap := netproto.LoadAckProgress(rep)
			acked = max(acked, received)
			if rep.Status == netproto.StatusOK {
				// The OK ack is only ever sent for the chunk that
				// completes reassembly: the server holds the whole image.
				return n, nil
			}
			// Only the OK ack ends the load: whatever gap a Pending ack
			// claims, it settles no more than the chunks below the last.
			return min(gap, n-1), nil
		},
	})
	c.m.chunkResends.Add(uint64(d.resent))
	if d.skipped > 0 {
		c.m.resumedChunks.Add(uint64(d.skipped))
		c.m.resumedLoads.Inc()
	}
	if err != nil {
		return &LoadError{
			ChunksAcked: acked, ChunksTotal: n,
			HighestAck: d.floor, Outstanding: d.outstanding, Window: window,
			Err: err,
		}
	}
	return nil
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
	reply, err := c.roundTrip(netproto.CmdStartLEON, req.Marshal())
	if err != nil {
		return err
	}
	rep, err := netproto.ParseRunReport(reply)
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
	reply, err := c.roundTrip(netproto.CmdResult, nil)
	if err != nil {
		return netproto.RunReport{}, err
	}
	return netproto.ParseRunReport(reply)
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
		remain := c.clk.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("client: %s still in flight after %v", what, limit)
		}
		// Never ask the server to outlast our own budget.
		h := max(min(hold, remain), time.Millisecond)
		c.m.waitHolds.Inc()
		before := c.clk.Now()
		// The server may delay the reply up to h, so every read
		// deadline is stretched by h beyond the retransmission schedule.
		req := netproto.WaitResultReq{HoldMs: uint32(h / time.Millisecond)}
		reply, err := c.exchangeCtx(ctx, cmd, req.Marshal(), deadline, h)
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
		if fin, err := done(reply); fin || err != nil {
			return err
		}
		if held >= interval {
			// The server held the exchange and the wait outlasted the
			// hold: re-issue immediately; the exchange itself paced us.
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: wait canceled: %w", ctx.Err())
		case <-c.clk.After(min(interval, c.clk.Until(deadline))):
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
		reply, err := c.roundTrip(netproto.CmdReadMemory, req.Marshal())
		if err != nil {
			return nil, err
		}
		mr, err := netproto.ParseMemResp(reply)
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
	reply, err := c.roundTrip(netproto.CmdWriteMemory, req.Marshal())
	if err != nil {
		return err
	}
	_, err = netproto.ParseMemResp(reply)
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
	reply, err := c.roundTrip(netproto.CmdReconfigure, spec)
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	rep, err := netproto.ParseRunReport(reply)
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
	reply, err := c.roundTrip(netproto.CmdReconfigure, body)
	if err != nil {
		return 0, err
	}
	rep, err := netproto.ParseRunReport(reply)
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
	reply, err := c.roundTrip(netproto.CmdReconfigStatus, nil)
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	return netproto.ParseReconfigStatusResp(reply)
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
	reply, err := c.roundTrip(netproto.CmdGetConfig, nil)
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// TraceReport pulls the instrumented-trace summary of the last run
// (JSON; see core.TraceReport for the schema).
func (c *Client) TraceReport() ([]byte, error) {
	reply, err := c.roundTrip(netproto.CmdTraceReport, nil)
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// Traces pulls the server's exchange-trace spans over the control
// channel (CmdTraces). id selects one trace (the server removes it
// from its ring — fetch once and keep it); zero asks for all recently
// completed traces. The result is JSON: an array of tracing.TraceData
// documents, mergeable with the client's own collector output via
// tracing.ChromeJSON. The fetch exchange itself is never traced.
func (c *Client) Traces(id uint64) ([]tracing.TraceData, error) {
	req := netproto.TracesReq{TraceID: id}
	reply, err := c.roundTrip(netproto.CmdTraces, req.Marshal())
	if err != nil {
		return nil, err
	}
	tr, err := netproto.ParseTracesResp(reply)
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
	reply, err := c.roundTrip(netproto.CmdStats, nil)
	if err != nil {
		return nil, err
	}
	return reply, nil
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
