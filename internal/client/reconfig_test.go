package client

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"liquidarch/internal/netproto"
)

// reconfigAckPacket builds the RunReport-shaped CmdReconfigure ack a
// server sends for the given ticket status.
func reconfigAckPacket(st netproto.ReconfigStatusResp) []byte {
	return netproto.Packet{
		Command: netproto.CmdReconfigure | netproto.RespFlag,
		Body:    netproto.ReconfigAckReport(st).Marshal(),
	}.Marshal()
}

func reconfigStatusPacket(cmd uint8, st netproto.ReconfigStatusResp) []byte {
	return netproto.Packet{Command: cmd | netproto.RespFlag, Body: st.Marshal()}.Marshal()
}

// TestReconfigureAsyncAck: the immediate ack decodes back into the
// non-terminal ticket state the server put in the RunReport spares.
func TestReconfigureAsyncAck(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdReconfigure {
			return nil
		}
		return [][]byte{reconfigAckPacket(netproto.ReconfigStatusResp{
			Status: netproto.StatusOK, State: netproto.ReconfigSynthesizing,
		})}
	})
	c := dialFast(t, addr)
	st, err := c.ReconfigureAsync([]byte(`{"dcache_bytes":8192}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != netproto.ReconfigSynthesizing || st.Terminal() {
		t.Errorf("ack decoded %+v, want non-terminal synthesizing", st)
	}
}

// TestReconfigStatusRoundTrip: all fields of the status body
// survive the wire.
func TestReconfigStatusRoundTrip(t *testing.T) {
	want := netproto.ReconfigStatusResp{
		Status: netproto.StatusOK, State: netproto.ReconfigSwapping, CacheHit: true,
	}
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdReconfigStatus {
			return nil
		}
		return [][]byte{reconfigStatusPacket(netproto.CmdReconfigStatus, want)}
	})
	c := dialFast(t, addr)
	got, err := c.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("status = %+v, want %+v", got, want)
	}
}

// TestPrewarmRoundTrip: the prewarm blob reaches the server as a
// {"prewarm":[...]} body and the queue count comes back in the ack.
func TestPrewarmRoundTrip(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdReconfigure {
			return nil
		}
		var body struct {
			Prewarm []json.RawMessage `json:"prewarm"`
		}
		if err := json.Unmarshal(req.Body, &body); err != nil || len(body.Prewarm) != 2 {
			return [][]byte{netproto.Packet{Command: netproto.CmdError,
				Body: netproto.ErrorResp{Code: req.Command, Msg: "bad prewarm body"}.Marshal()}.Marshal()}
		}
		return [][]byte{reconfigAckPacket(netproto.ReconfigStatusResp{
			Status: netproto.StatusOK, State: netproto.ReconfigQueued, Queued: 2,
		})}
	})
	c := dialFast(t, addr)
	queued, err := c.Prewarm([]json.RawMessage{
		json.RawMessage(`{"dcache_bytes":2048}`),
		json.RawMessage(`{"dcache_bytes":8192}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if queued != 2 {
		t.Errorf("queued = %d, want 2", queued)
	}
}

// TestWaitReconfigureHeld: one held CmdWaitReconfig exchange returns
// the terminal state; no status polls are needed.
func TestWaitReconfigureHeld(t *testing.T) {
	var polls atomic.Int64
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		switch req.Command {
		case netproto.CmdWaitReconfig:
			if _, err := netproto.ParseWaitResultReq(req.Body); err != nil {
				t.Error(err)
			}
			return [][]byte{reconfigStatusPacket(netproto.CmdWaitReconfig, netproto.ReconfigStatusResp{
				Status: netproto.StatusOK, State: netproto.ReconfigApplied,
			})}
		case netproto.CmdReconfigStatus:
			polls.Add(1)
		}
		return nil
	})
	c := dialFast(t, addr)
	st, err := c.WaitReconfigure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != netproto.ReconfigApplied {
		t.Errorf("held wait returned %+v", st)
	}
	if polls.Load() != 0 {
		t.Errorf("held wait fell back to %d status polls", polls.Load())
	}
}

// TestWaitReconfigureFallback: a server that answers CmdWaitReconfig
// early (it could not park the exchange) gets the wait re-issued,
// paced at PollInterval, until the swap is terminal — never a
// CmdReconfigStatus poll.
func TestWaitReconfigureFallback(t *testing.T) {
	var waits, polls atomic.Int64
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		switch req.Command {
		case netproto.CmdWaitReconfig:
			st := netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigSynthesizing}
			if waits.Add(1) >= 3 {
				st.State = netproto.ReconfigApplied
			}
			return [][]byte{reconfigStatusPacket(netproto.CmdWaitReconfig, st)}
		case netproto.CmdReconfigStatus:
			polls.Add(1)
		}
		return nil
	})
	c := dialFast(t, addr)
	c.PollInterval = 20 * time.Millisecond
	start := time.Now()
	st, err := c.WaitReconfigure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != netproto.ReconfigApplied {
		t.Errorf("wait returned %+v", st)
	}
	if got := waits.Load(); got != 3 {
		t.Errorf("CmdWaitReconfig sent %d times, want 3", got)
	}
	if polls.Load() != 0 {
		t.Errorf("wait issued %d CmdReconfigStatus polls", polls.Load())
	}
	if elapsed := time.Since(start); elapsed < 2*c.PollInterval {
		t.Errorf("two early answers re-issued after %v, want paced at %v", elapsed, c.PollInterval)
	}
}

// TestReconfigureBlockingComposition: Reconfigure waits out a
// non-terminal ack and succeeds only on Applied.
func TestReconfigureBlockingComposition(t *testing.T) {
	var statusCalls atomic.Int64
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		switch req.Command {
		case netproto.CmdReconfigure:
			return [][]byte{reconfigAckPacket(netproto.ReconfigStatusResp{
				Status: netproto.StatusOK, State: netproto.ReconfigQueued,
			})}
		case netproto.CmdWaitReconfig:
			return [][]byte{reconfigStatusPacket(netproto.CmdWaitReconfig, netproto.ReconfigStatusResp{
				Status: netproto.StatusOK, State: netproto.ReconfigApplied, CacheHit: true,
			})}
		case netproto.CmdReconfigStatus:
			statusCalls.Add(1)
		}
		return nil
	})
	c := dialFast(t, addr)
	if err := c.Reconfigure([]byte(`{"dcache_bytes":8192}`)); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureFailureSurfaces: a failed swap turns into an error
// naming the state (or the server's message when one travels).
func TestReconfigureFailureSurfaces(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdReconfigure {
			return nil
		}
		return [][]byte{reconfigAckPacket(netproto.ReconfigStatusResp{
			Status: netproto.StatusError, State: netproto.ReconfigFailed,
		})}
	})
	c := dialFast(t, addr)
	err := c.Reconfigure([]byte(`{"dcache_bytes":1}`))
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("err = %v, want a failure naming the state", err)
	}
}
