package fpx

import (
	"testing"

	"liquidarch/internal/netproto"
)

func TestSwitchRoutesByDestination(t *testing.T) {
	sw := NewSwitch()
	emA := NewEmulator()
	emB := NewEmulator()
	nodeA := New(emA, [4]byte{10, 0, 0, 2}, 5001)
	nodeB := New(emB, [4]byte{10, 0, 0, 3}, 5001)
	if err := sw.Attach(nodeA); err != nil {
		t.Fatal(err)
	}
	if err := sw.Attach(nodeB); err != nil {
		t.Fatal(err)
	}

	status := netproto.Packet{Command: netproto.CmdStatus}.Marshal()
	// A frame for node B lands on node B.
	frame := netproto.BuildFrame(hostIP, [4]byte{10, 0, 0, 3}, hostPort, 5001, status)
	reply, forwarded, err := sw.Route(frame)
	if err != nil || forwarded {
		t.Fatalf("route: %v forwarded=%v", err, forwarded)
	}
	if reply == nil {
		t.Fatal("no reply frame")
	}
	const handled = `liquid_fpx_commands_total{cmd="status"}`
	a, b := nodeA.Metrics().Snapshot().Counter(handled), nodeB.Metrics().Snapshot().Counter(handled)
	if a != 0 || b != 1 {
		t.Errorf("command landed on the wrong node: A=%d B=%d", a, b)
	}
	// The response frame is addressed back to the sender.
	f, err := netproto.ParseFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if f.IP.Src != nodeB.IP || f.IP.Dst != hostIP {
		t.Errorf("response addressing %v → %v", f.IP.Src, f.IP.Dst)
	}

	// Unknown destination: forwarded toward the line card.
	other := netproto.BuildFrame(hostIP, [4]byte{10, 0, 0, 99}, hostPort, 5001, status)
	reply, forwarded, err = sw.Route(other)
	if err != nil || !forwarded || reply != nil {
		t.Errorf("foreign frame: %v forwarded=%v reply=%x", err, forwarded, reply)
	}

	// Garbage is counted and reported.
	if _, _, err := sw.Route([]byte{1, 2, 3}); err == nil {
		t.Error("garbage routed")
	}
	st := sw.Stats()
	if st.Delivered != 1 || st.Forwarded != 1 || st.Bad != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwitchPortLimitAndDuplicates(t *testing.T) {
	sw := NewSwitch()
	for i := 0; i < NIDPorts; i++ {
		p := New(NewEmulator(), [4]byte{10, 0, 0, byte(10 + i)}, 5001)
		if err := sw.Attach(p); err != nil {
			t.Fatalf("port %d: %v", i, err)
		}
	}
	if err := sw.Attach(New(NewEmulator(), [4]byte{10, 0, 0, 50}, 5001)); err == nil {
		t.Error("fifth port attached")
	}
	sw2 := NewSwitch()
	p := New(NewEmulator(), [4]byte{10, 0, 0, 7}, 5001)
	if err := sw2.Attach(p); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Attach(New(NewEmulator(), [4]byte{10, 0, 0, 7}, 5001)); err == nil {
		t.Error("duplicate IP attached")
	}
}
