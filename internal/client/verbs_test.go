package client

import (
	"sync"
	"testing"

	"liquidarch/internal/netproto"
)

// TestResultRoundTrip: a single CmdResult exchange returns whatever
// report the server holds, running or final.
func TestResultRoundTrip(t *testing.T) {
	want := netproto.RunReport{Status: netproto.StatusOK, Cycles: 4242}
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdResult {
			return nil
		}
		return []netproto.Packet{{Command: netproto.CmdResult | netproto.RespFlag, Body: want.Marshal()}}
	})
	c := dialFast(t, addr)
	rep, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
}

// TestStatsRoundTrip: the stats verb hands back the server's JSON
// document untouched.
func TestStatsRoundTrip(t *testing.T) {
	doc := []byte(`{"counters":{"x":1}}`)
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdStats {
			return nil
		}
		return []netproto.Packet{{Command: netproto.CmdStats | netproto.RespFlag, Body: doc}}
	})
	c := dialFast(t, addr)
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(doc) {
		t.Errorf("stats = %s, want %s", got, doc)
	}
}

// TestTracesRoundTrip covers the happy path, the non-OK status and the
// malformed-JSON error of the traces verb.
func TestTracesRoundTrip(t *testing.T) {
	var mu sync.Mutex
	payload := []byte(`[{"id":7,"spans":[]}]`)
	status := uint8(netproto.StatusOK)
	set := func(s uint8, p string) {
		mu.Lock()
		defer mu.Unlock()
		status, payload = s, []byte(p)
	}
	addr := seqServer(t, func(req netproto.Packet) []netproto.Packet {
		if req.Command != netproto.CmdTraces {
			return nil
		}
		mu.Lock()
		body := netproto.TracesResp{Status: status, JSON: payload}.Marshal()
		mu.Unlock()
		return []netproto.Packet{{Command: netproto.CmdTraces | netproto.RespFlag, Body: body}}
	})
	c := dialFast(t, addr)
	traces, err := c.Traces(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].ID != 7 {
		t.Errorf("traces = %+v", traces)
	}

	set(netproto.StatusOK, `{not json`)
	if _, err := c.Traces(7); err == nil {
		t.Error("malformed traces JSON accepted")
	}

	set(netproto.StatusError, `[]`)
	if _, err := c.Traces(7); err == nil {
		t.Error("non-OK traces status accepted")
	}
}
