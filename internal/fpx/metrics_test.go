package fpx

import (
	"encoding/json"
	"sync"
	"testing"

	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
)

// TestPlatformMetricsCounted exercises the CPP counters: frames in and
// out, per-command dispatch, and the out-of-order load-chunk counter.
func TestPlatformMetricsCounted(t *testing.T) {
	p := newLEONPlatform(t)

	// Two status commands.
	sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})
	sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})

	// A 3-chunk load delivered 0, 2, 1: chunk 2 arrives when only one
	// chunk has been seen and chunk 1 when two have, so both count as
	// out of order (sequence number != chunks seen so far).
	image := make([]byte, 2*netproto.MaxChunkData+50)
	obj := testProgram(t)
	copy(image, obj.Code)
	chunks := netproto.ChunkImage(leon.DefaultLoadAddr, image)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	for _, idx := range []int{0, 2, 1} {
		sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: chunks[idx].Marshal()})
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counter(`liquid_fpx_commands_total{cmd="status"}`); got != 2 {
		t.Errorf(`commands{status} = %d, want 2`, got)
	}
	if got := snap.Counter(`liquid_fpx_commands_total{cmd="load"}`); got != 3 {
		t.Errorf(`commands{load} = %d, want 3`, got)
	}
	if got := snap.Counter("liquid_fpx_load_chunks_total"); got != 3 {
		t.Errorf("load_chunks = %d, want 3", got)
	}
	if got := snap.Counter("liquid_fpx_load_chunks_out_of_order_total"); got != 2 {
		t.Errorf("out_of_order = %d, want 2", got)
	}
	if got := snap.Counter("liquid_fpx_loads_completed_total"); got != 1 {
		t.Errorf("loads_completed = %d, want 1", got)
	}
	if got := snap.Counter("liquid_fpx_frames_in_total"); got != 5 {
		t.Errorf("frames_in = %d, want 5", got)
	}
	if got := snap.Counter("liquid_fpx_frames_out_total"); got != 5 {
		t.Errorf("frames_out = %d, want 5", got)
	}
}

// TestStatsRaceFree hammers the registry snapshot while the handle
// path runs: it is clean under -race (a scrape reads the counters
// while boards run concurrently behind the multi-board node).
func TestStatsRaceFree(t *testing.T) {
	em := NewEmulator()
	p := New(em, fpxIP, fpxPort)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = p.Metrics().Snapshot()
				}
			}
		}()
	}
	pkt := netproto.Packet{Command: netproto.CmdStatus}
	frame := netproto.BuildFrame(hostIP, fpxIP, hostPort, fpxPort, pkt.Marshal())
	for i := 0; i < 500; i++ {
		if _, err := p.HandleFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := p.Metrics().Snapshot().Counter(`liquid_fpx_commands_total{cmd="status"}`); got != 500 {
		t.Errorf("status commands = %d, want 500", got)
	}
}

// TestStatsCommand checks CmdStats returns the registry snapshot as
// JSON in-band.
func TestStatsCommand(t *testing.T) {
	p := newLEONPlatform(t)
	sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})
	resp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStats})
	if resp.Command != netproto.CmdStats|netproto.RespFlag {
		t.Fatalf("response command = %#02x", resp.Command)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("stats body is not a snapshot: %v", err)
	}
	if got := snap.Counter(`liquid_fpx_commands_total{cmd="status"}`); got != 1 {
		t.Errorf(`snapshot commands{status} = %d, want 1`, got)
	}
	// The stats command itself was dispatched before the snapshot.
	if got := snap.Counter(`liquid_fpx_commands_total{cmd="stats"}`); got != 1 {
		t.Errorf(`snapshot commands{stats} = %d, want 1`, got)
	}
}

// TestCommandName locks the label vocabulary used across the metrics.
func TestCommandName(t *testing.T) {
	cases := map[uint8]string{
		netproto.CmdStatus:                    "status",
		netproto.CmdLoadProgram:               "load",
		netproto.CmdStartLEON:                 "start",
		netproto.CmdReadMemory:                "readmem",
		netproto.CmdWriteMemory:               "writemem",
		netproto.CmdReconfigure:               "reconfigure",
		netproto.CmdGetConfig:                 "getconfig",
		netproto.CmdTraceReport:               "trace",
		netproto.CmdStats:                     "stats",
		netproto.CmdResult:                    "result",
		0x0B:                                  "unknown", // the retired blocking start
		netproto.CmdStats | netproto.RespFlag: "stats",   // RespFlag stripped
		netproto.CmdError:                     "error",
		0x42:                                  "unknown",
	}
	for cmd, want := range cases {
		if got := netproto.CommandName(cmd); got != want {
			t.Errorf("CommandName(%#02x) = %q, want %q", cmd, got, want)
		}
	}
}
