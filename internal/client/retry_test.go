package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// deafServer binds a UDP socket that never answers — the transport's
// worst case.
func deafServer(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn.LocalAddr().String()
}

// seqServer is scriptServer with the header echo every real platform
// follows: responses carry the request's board and exchange seq.
func seqServer(t *testing.T, handle func(req netproto.Packet) []netproto.Packet) string {
	t.Helper()
	return scriptServer(t, func(req netproto.Packet) [][]byte {
		resps := handle(req)
		out := make([][]byte, len(resps))
		for i, r := range resps {
			r.Board, r.Seq, r.HasSeq = req.Board, req.Seq, req.HasSeq
			out[i] = r.Marshal()
		}
		return out
	})
}

func TestBackoffGrowsExponentially(t *testing.T) {
	addr := deafServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 20 * time.Millisecond
	c.Retries = 3
	c.Jitter = -1 // deterministic timing

	start := time.Now()
	_, err = c.Status()
	elapsed := time.Since(start)

	if !errors.Is(err, ErrBoardUnreachable) {
		t.Fatalf("err = %v, want ErrBoardUnreachable", err)
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %T, want *UnreachableError", err)
	}
	if ue.Attempts != 4 {
		t.Errorf("attempts = %d, want 4 (1 + 3 retries)", ue.Attempts)
	}
	// 20 + 40 + 80 + 160 = 300ms of backed-off waiting.
	if elapsed < 280*time.Millisecond {
		t.Errorf("gave up after %v; backoff schedule should take ~300ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("took %v; backoff schedule should take ~300ms", elapsed)
	}
	snap := c.Metrics().Snapshot()
	if got := snap.Counters["liquid_client_retries_total"]; got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
	if got := snap.Counters["liquid_client_backoff_total"]; got != 3 {
		t.Errorf("backoffs = %d, want 3", got)
	}
	if got := snap.Counters["liquid_client_unreachable_total"]; got != 1 {
		t.Errorf("unreachable = %d, want 1", got)
	}
}

func TestMaxTimeoutCapsBackoff(t *testing.T) {
	addr := deafServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 40 * time.Millisecond
	c.MaxTimeout = 50 * time.Millisecond
	c.Retries = 4
	c.Jitter = -1

	start := time.Now()
	_, err = c.Status()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBoardUnreachable) {
		t.Fatalf("err = %v", err)
	}
	// Capped: 40 + 4×50 = 240ms. Uncapped it would be 1.24s.
	if elapsed < 220*time.Millisecond || elapsed > 700*time.Millisecond {
		t.Errorf("elapsed %v, want ~240ms (MaxTimeout cap)", elapsed)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	c := &Client{Jitter: 0.25}
	c.SetSeed(7)
	base := 100 * time.Millisecond
	varied := false
	for i := 0; i < 200; i++ {
		d := c.jittered(base)
		if d < 75*time.Millisecond || d > 125*time.Millisecond {
			t.Fatalf("jittered(%v) = %v outside ±25%%", base, d)
		}
		if d != base {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never varied the wait")
	}
	// Same seed → same schedule.
	a, b := &Client{Jitter: 0.25}, &Client{Jitter: 0.25}
	a.SetSeed(11)
	b.SetSeed(11)
	for i := 0; i < 50; i++ {
		if a.jittered(base) != b.jittered(base) {
			t.Fatal("pinned seed did not pin the jitter schedule")
		}
	}
	// Negative jitter disables.
	c.Jitter = -1
	if c.jittered(base) != base {
		t.Error("Jitter<0 should disable jitter")
	}
}

func TestStaleSeqResponsesSuppressed(t *testing.T) {
	// The server answers every status request twice; the duplicate of
	// exchange N sits in the socket buffer until exchange N+1 reads —
	// and must discard — it.
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdStatus {
			return nil
		}
		resp := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Body: netproto.StatusResp{State: 1, BootOK: true}.Marshal()}
		return []netproto.Packet{resp, resp}
	})
	c := dialFast(t, addr)
	for i := 0; i < 3; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatalf("status %d: %v", i, err)
		}
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["liquid_client_dup_responses_total"] == 0 {
		t.Error("stale-seq duplicates were never suppressed")
	}
}

func TestWrongBoardResponseIgnored(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdStatus {
			return nil
		}
		misrouted := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Board: req.Board + 1, Seq: req.Seq, HasSeq: req.HasSeq,
			Body: netproto.StatusResp{State: 9}.Marshal()}
		good := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Board: req.Board, Seq: req.Seq, HasSeq: req.HasSeq,
			Body: netproto.StatusResp{State: 1, BootOK: true}.Marshal()}
		return [][]byte{misrouted.Marshal(), good.Marshal()}
	})
	c := dialFast(t, addr)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != 1 {
		t.Errorf("state = %d: a response for another board was accepted", st.State)
	}
	if c.Metrics().Snapshot().Counters["liquid_client_dup_responses_total"] == 0 {
		t.Error("misrouted response not counted as suppressed")
	}
}

func TestWaitResultHonorsWaitTimeout(t *testing.T) {
	// Every poll times out; the overall WaitTimeout must still be
	// honored instead of each poll burning a full retry schedule.
	addr := deafServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 100 * time.Millisecond
	c.Retries = 10 // uncapped, one poll alone would take >100s
	c.Jitter = -1
	c.WaitTimeout = 300 * time.Millisecond
	col := tracing.New("client")
	c.Tracer = col
	c.TraceID = col.NewTraceID()

	start := time.Now()
	_, err = c.WaitResult()
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "unconfirmed") {
		t.Fatalf("err = %v, want 'run still unconfirmed'", err)
	}
	if !errors.Is(err, ErrBoardUnreachable) {
		t.Errorf("unconfirmed error should unwrap to ErrBoardUnreachable: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("WaitResult overshot its %v budget by %v", c.WaitTimeout, elapsed-c.WaitTimeout)
	}
	if elapsed < 280*time.Millisecond {
		t.Errorf("WaitResult gave up after %v, before its %v budget", elapsed, c.WaitTimeout)
	}
	// The one exchange's read ran into the overall deadline, so nothing
	// was retransmitted: no retry or backoff is counted, and the retry
	// spans agree with the retries metric.
	snap := c.Metrics().Snapshot()
	retries := snap.Counters["liquid_client_retries_total"]
	if retries != 0 {
		t.Errorf("retries = %d, want 0: no datagram was resent", retries)
	}
	if got := snap.Counters["liquid_client_backoff_total"]; got != 0 {
		t.Errorf("backoffs = %d, want 0: no resend waited", got)
	}
	spans := 0
	for _, td := range col.TakeTrace(c.TraceID) {
		for _, sp := range td.Spans {
			if sp.Name == "retry" {
				spans++
			}
		}
	}
	if uint64(spans) != retries {
		t.Errorf("retry spans = %d, retries metric = %d", spans, retries)
	}
}

// earlyWaitServer answers every CmdWaitResult at once with a running
// report, as a node does when it cannot park the exchange.
func earlyWaitServer(t *testing.T) string {
	return seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdWaitResult {
			return nil
		}
		return []netproto.Packet{{Command: netproto.CmdWaitResult | netproto.RespFlag,
			Body: netproto.RunReport{Status: netproto.StatusRunning, Cycles: 5}.Marshal()}}
	})
}

func TestWaitResultContextCancel(t *testing.T) {
	c := dialFast(t, earlyWaitServer(t))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.WaitResultContext(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to propagate", elapsed)
	}
}

func TestWaitResultContextDeadline(t *testing.T) {
	c := dialFast(t, earlyWaitServer(t))
	c.WaitTimeout = time.Minute // ctx deadline is sooner and must win
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.WaitResultContext(ctx)
	if err == nil {
		t.Fatal("in-flight run reported done")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("ctx deadline took %v to be honored", elapsed)
	}
}

// TestWaitResultPollsUntilDone: a server that answers each held wait
// early gets the wait re-issued, paced at PollInterval, until the run
// is done — always CmdWaitResult, never a CmdResult poll.
func TestWaitResultPollsUntilDone(t *testing.T) {
	var mu sync.Mutex
	polls := 0
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdWaitResult {
			return nil
		}
		mu.Lock()
		polls++
		n := polls
		mu.Unlock()
		rep := netproto.RunReport{Status: netproto.StatusRunning, Cycles: uint64(n)}
		if n > 3 {
			rep = netproto.RunReport{Status: netproto.StatusOK, Cycles: 77}
		}
		return []netproto.Packet{{Command: netproto.CmdWaitResult | netproto.RespFlag, Body: rep.Marshal()}}
	})
	c := dialFast(t, addr)
	c.PollInterval = 20 * time.Millisecond
	start := time.Now()
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles != 77 {
		t.Errorf("report = %+v", rep)
	}
	if elapsed := time.Since(start); elapsed < 3*c.PollInterval {
		t.Errorf("three early answers re-issued after %v, want paced at %v", elapsed, c.PollInterval)
	}
	mu.Lock()
	defer mu.Unlock()
	if polls != 4 {
		t.Errorf("server saw %d waits, want 4", polls)
	}
	snap := c.Metrics().Snapshot()
	if got := snap.Counters["liquid_client_wait_holds_total"]; got != 4 {
		t.Errorf("wait holds = %d, want 4", got)
	}
	if got := snap.Counter(`liquid_client_requests_total{cmd="result"}`); got != 0 {
		t.Errorf("requests{result} = %d, want 0", got)
	}
}

func TestLoadErrorCarriesPartialProgress(t *testing.T) {
	// The server acks the first two chunks then goes deaf.
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdLoadProgram {
			return nil
		}
		ch, err := netproto.ParseLoadChunk(req.Body)
		if err != nil || ch.Seq >= 2 {
			return nil
		}
		ack := netproto.LoadAckReport(netproto.StatusPending, int(ch.Seq)+1, int(ch.Seq)+1)
		return []netproto.Packet{{Command: netproto.CmdLoadProgram | netproto.RespFlag, Body: ack.Marshal()}}
	})
	c := dialFast(t, addr)
	c.Timeout = 50 * time.Millisecond
	c.Retries = 1
	image := make([]byte, 3*netproto.MaxChunkData+100) // 4 chunks
	err := c.LoadProgram(0x40001000, image)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if le.ChunksAcked != 2 || le.ChunksTotal != 4 {
		t.Errorf("progress = %d/%d, want 2/4", le.ChunksAcked, le.ChunksTotal)
	}
	// Window forensics: the ack floor sits at chunk 2, and the two
	// unacked chunks (2 and 3) were in flight when the board went dark.
	if le.HighestAck != 2 {
		t.Errorf("highest ack = %d, want 2", le.HighestAck)
	}
	if le.Outstanding != 2 {
		t.Errorf("outstanding = %d, want 2 (chunks 2 and 3 in flight)", le.Outstanding)
	}
	if le.Window != DefaultWindow {
		t.Errorf("window = %d, want the default %d", le.Window, DefaultWindow)
	}
	if !errors.Is(err, ErrBoardUnreachable) {
		t.Errorf("LoadError should unwrap to ErrBoardUnreachable: %v", err)
	}
}

// TestLoadErrorWithoutOKAck: a load ends only on the node's OK ack. A
// node whose reassembly restarts under the load (another peer's image,
// or a full swap) answers every chunk Pending with its gap still at 0;
// once every chunk is answered the load fails at once with a
// *LoadError, without a resend or a silent round.
func TestLoadErrorWithoutOKAck(t *testing.T) {
	var mu sync.Mutex
	chunks := 0
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdLoadProgram {
			return nil
		}
		mu.Lock()
		chunks++
		mu.Unlock()
		return [][]byte{netproto.Packet{Command: netproto.CmdLoadProgram | netproto.RespFlag,
			Body: netproto.LoadAckReport(netproto.StatusPending, 1, 0).Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	c.Timeout = 2 * time.Second
	start := time.Now()
	err := c.LoadProgram(0x40001000, make([]byte, 2*netproto.MaxChunkData+1)) // 3 chunks
	elapsed := time.Since(start)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if le.ChunksTotal != 3 || le.HighestAck != 0 || le.Outstanding != 0 {
		t.Errorf("LoadError = %+v, want 3 chunks, floor 0, none in flight", le)
	}
	if errors.Is(err, ErrBoardUnreachable) {
		t.Errorf("every chunk was answered, yet the load reports the board unreachable: %v", err)
	}
	if elapsed >= c.Timeout {
		t.Errorf("load failed after %v, want at once (before the %v timeout)", elapsed, c.Timeout)
	}
	mu.Lock()
	defer mu.Unlock()
	if chunks != 3 {
		t.Errorf("server saw %d chunk datagrams, want 3 (no resends)", chunks)
	}
	if got := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]; got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestLoadResumesFromServerProgress(t *testing.T) {
	// The server already holds chunks 1-3 of 4 (a previous interrupted
	// load): the first chunk is re-acked with the gap at 3, and the
	// client must jump straight there.
	var mu sync.Mutex
	var seen []uint16
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdLoadProgram {
			return nil
		}
		ch, err := netproto.ParseLoadChunk(req.Body)
		if err != nil {
			return nil
		}
		mu.Lock()
		seen = append(seen, ch.Seq)
		mu.Unlock()
		ack := netproto.LoadAckReport(netproto.StatusPending, 3, 3)
		if ch.Seq == 3 {
			ack = netproto.LoadAckReport(netproto.StatusOK, 4, 4)
		}
		return []netproto.Packet{{Command: netproto.CmdLoadProgram | netproto.RespFlag, Body: ack.Marshal()}}
	})
	c := dialFast(t, addr)
	image := make([]byte, 3*netproto.MaxChunkData+100) // 4 chunks
	if err := c.LoadProgram(0x40001000, image); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]uint16(nil), seen...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("server saw chunks %v, want [0 3] (1 and 2 skipped)", got)
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["liquid_client_loads_resumed_total"] != 1 {
		t.Error("resume not counted")
	}
	if got := snap.Counters["liquid_client_load_chunks_skipped_total"]; got != 2 {
		t.Errorf("skipped chunks = %d, want 2", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	addr := deafServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Timeout != 2*time.Second || c.Retries != 3 {
		t.Errorf("defaults: timeout %v retries %d", c.Timeout, c.Retries)
	}
	if c.BackoffFactor != 2 || c.Jitter != 0.1 {
		t.Errorf("defaults: factor %v jitter %v", c.BackoffFactor, c.Jitter)
	}
}
