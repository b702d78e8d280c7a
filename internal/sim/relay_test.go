package sim

import (
	"bytes"
	"net"
	"testing"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
)

// echoServer runs a UDP server that echoes every datagram back with a
// one-byte 0xEE prefix (so a test can tell request from response).
func echoServer(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			conn.WriteToUDP(append([]byte{0xEE}, buf[:n]...), peer) //nolint:errcheck
		}
	}()
	return conn.LocalAddr().String()
}

// startRelay builds and serves a relay in front of an echo server,
// wired for cleanup.
func startRelay(t *testing.T, up, down LinkParams, reg *metrics.Registry) *Relay {
	t.Helper()
	r, err := NewRelay("127.0.0.1:0", echoServer(t), 1, up, down, reg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	t.Cleanup(func() {
		r.Close()
		if err := <-done; err != nil {
			t.Errorf("relay serve: %v", err)
		}
	})
	return r
}

// dialRelay opens a client socket toward r.
func dialRelay(t *testing.T, r *Relay) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// readEcho reads one reply and checks it is the echo of msg.
func readEcho(t *testing.T, c *net.UDPConn, msg []byte) {
	t.Helper()
	buf := make([]byte, 1024)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], append([]byte{0xEE}, msg...)) {
		t.Fatalf("echo through relay = %x, want the echo of %x", buf[:n], msg)
	}
}

func TestRelayRelaysBothWays(t *testing.T) {
	c := dialRelay(t, startRelay(t, LinkParams{}, LinkParams{}, nil))
	msg := pkt(netproto.CmdStatus, 0x42)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	readEcho(t, c, msg)
}

func TestRelayConcurrentClients(t *testing.T) {
	r := startRelay(t, LinkParams{}, LinkParams{}, nil)
	var clients []*net.UDPConn
	for i := 0; i < 3; i++ {
		c := dialRelay(t, r)
		if _, err := c.Write(pkt(netproto.CmdStatus, byte(i))); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for i, c := range clients {
		readEcho(t, c, pkt(netproto.CmdStatus, byte(i)))
	}
}

// TestRelayInjectionMetrics: a random drop and a scripted duplicate on
// the up link both reach the target's traffic and the relay's counters.
func TestRelayInjectionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rules, err := ParseScript("up:start=dup")
	if err != nil {
		t.Fatal(err)
	}
	c := dialRelay(t, startRelay(t, LinkParams{Drop: 1, Rules: rules}, LinkParams{}, reg))
	start := pkt(netproto.CmdStartLEON)
	for _, msg := range [][]byte{pkt(netproto.CmdStatus), start} {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	readEcho(t, c, start) // the status was dropped
	readEcho(t, c, start)
	snap := reg.Snapshot()
	for key, want := range map[string]uint64{
		`liquid_chaos_packets_total{dir="up"}`:         2,
		`liquid_chaos_packets_total{dir="down"}`:       2,
		`liquid_chaos_injected_total{event="up_drop"}`: 1,
		`liquid_chaos_injected_total{event="up_dup"}`:  1,
	} {
		if got := snap.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
}

// TestRelayScriptedUpDrop: an @1 drop rule takes the client's first
// status request away and lets its retransmission through.
func TestRelayScriptedUpDrop(t *testing.T) {
	reg := metrics.NewRegistry()
	rules, err := ParseScript("up:status@1=drop")
	if err != nil {
		t.Fatal(err)
	}
	c := dialRelay(t, startRelay(t, LinkParams{Rules: rules}, LinkParams{}, reg))
	msg := pkt(netproto.CmdStatus)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("scripted-away request was echoed: %x", buf[:n])
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	readEcho(t, c, msg)
	if got := reg.Snapshot().Counter(`liquid_chaos_injected_total{event="up_drop"}`); got != 1 {
		t.Fatalf("up_drop counter = %d, want 1", got)
	}
}

func TestRelayDelayedDelivery(t *testing.T) {
	rules, err := ParseScript("up:status=delay:20ms")
	if err != nil {
		t.Fatal(err)
	}
	c := dialRelay(t, startRelay(t, LinkParams{Latency: 10 * time.Millisecond, Rules: rules}, LinkParams{}, nil))
	start := time.Now()
	msg := pkt(netproto.CmdStatus)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	readEcho(t, c, msg)
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("10ms latency plus a 20ms delay arrived after only %v", elapsed)
	}
}

func TestRelayCloseIdempotent(t *testing.T) {
	r, err := NewRelay("127.0.0.1:0", echoServer(t), 1, LinkParams{}, LinkParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

func TestRelayRejectsBadRates(t *testing.T) {
	if _, err := NewRelay("127.0.0.1:0", "127.0.0.1:1", 1, LinkParams{Drop: 2}, LinkParams{}, nil); err == nil {
		t.Fatal("NewRelay accepted drop=2")
	}
	if _, err := NewRelay("127.0.0.1:0", "127.0.0.1:1", 1, LinkParams{}, LinkParams{Dup: -1}, nil); err == nil {
		t.Fatal("NewRelay accepted dup=-1")
	}
}
