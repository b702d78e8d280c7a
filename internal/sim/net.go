package sim

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// Network is an in-memory datagram fabric. Endpoints are addressed by
// real *net.UDPAddr values (10.77.0.0/16) so code that inspects peer
// addresses works unchanged. Per-link fault RNGs are derived from the
// network seed and the link's address pair, making the fault schedule
// a pure function of (seed, per-link packet order).
type Network struct {
	clk  *VirtualClock
	seed int64

	mu       sync.Mutex
	eps      map[string]*PacketConn
	links    map[string]*link
	nextHost uint32
}

// NewNetwork creates a fabric on clk with the given fault seed.
func NewNetwork(clk *VirtualClock, seed int64) *Network {
	return &Network{
		clk:   clk,
		seed:  seed,
		eps:   make(map[string]*PacketConn),
		links: make(map[string]*link),
	}
}

// SetLink overrides the fault params of the directed link src -> dst.
// A link from an endpoint made by Dial is the client→server (up) link
// for p's rules; every other link is down.
func (n *Network) SetLink(src, dst net.Addr, p LinkParams) {
	n.mu.Lock()
	n.linkLocked(src.String(), dst.String()).set(p)
	n.mu.Unlock()
}

// LinkStats returns a copy of the directed link's fault counters.
func (n *Network) LinkStats(src, dst net.Addr) LinkStats {
	key := src.String() + ">" + dst.String()
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[key]; ok {
		return l.stats
	}
	return LinkStats{}
}

func (n *Network) linkLocked(src, dst string) *link {
	key := src + ">" + dst
	l, ok := n.links[key]
	if !ok {
		ep := n.eps[src]
		l = newLink(n.seed, key, ep != nil && ep.dialed, LinkParams{})
		n.links[key] = l
	}
	return l
}

// Listen binds a PacketConn at addr ("ip:port"); an empty addr
// auto-allocates a unique 10.77.x.x address.
func (n *Network) Listen(addr string) (*PacketConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var ua *net.UDPAddr
	if addr == "" {
		n.nextHost++
		h := n.nextHost
		ua = &net.UDPAddr{
			IP:   net.IPv4(10, 77, byte(h>>8), byte(h)),
			Port: 40000 + int(h%20000),
		}
	} else {
		ap, err := netip.ParseAddrPort(addr)
		if err != nil {
			return nil, fmt.Errorf("sim: bad address %q: %w", addr, err)
		}
		ua = net.UDPAddrFromAddrPort(ap)
	}
	key := ua.String()
	if _, busy := n.eps[key]; busy {
		return nil, fmt.Errorf("sim: address %s already bound", key)
	}
	pc := &PacketConn{net: n, clk: n.clk, laddr: ua}
	pc.cond = sync.NewCond(&pc.mu)
	n.eps[key] = pc
	return pc, nil
}

// Dial binds an auto-allocated endpoint connected to remote, returning
// a stream-style Conn usable as the client transport.
func (n *Network) Dial(remote net.Addr) (*Conn, error) {
	ra, ok := remote.(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("sim: dial needs *net.UDPAddr, got %T", remote)
	}
	pc, err := n.Listen("")
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	pc.dialed = true
	n.mu.Unlock()
	return &Conn{pc: pc, raddr: ra, rkey: ra.String()}, nil
}

// send pushes payload across the src -> dst link, applying the link's
// fault schedule. Delivery happens through the virtual clock so
// latency composes with everything else on the timeline.
func (n *Network) send(src *net.UDPAddr, dst string, payload []byte) {
	n.mu.Lock()
	out := n.linkLocked(src.String(), dst).decide(payload)
	n.mu.Unlock()
	for _, d := range out {
		if d.after <= 0 {
			n.deliver(src, dst, d.payload)
			continue
		}
		n.clk.AfterFunc(d.after, func() { n.deliver(src, dst, d.payload) })
	}
	n.clk.touch()
}

func (n *Network) deliver(from *net.UDPAddr, to string, payload []byte) {
	n.mu.Lock()
	ep := n.eps[to]
	if l, ok := n.links[from.String()+">"+to]; ok {
		l.stats.Delivered++
	}
	n.mu.Unlock()
	if ep == nil {
		return // destination closed or never bound: datagram vanishes
	}
	ep.enqueue(payload, from)
	n.clk.touch()
}

func (n *Network) unbind(key string) {
	n.mu.Lock()
	delete(n.eps, key)
	n.mu.Unlock()
}

// timeoutError satisfies net.Error the same way UDP read deadlines do.
type timeoutError struct{}

func (timeoutError) Error() string   { return "sim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var errTimeout = &net.OpError{Op: "read", Net: "sim", Err: timeoutError{}}

type inPkt struct {
	payload []byte
	from    *net.UDPAddr
}

// PacketConn is a simulated net.PacketConn bound to the fabric.
type PacketConn struct {
	net    *Network
	clk    *VirtualClock
	laddr  *net.UDPAddr
	dialed bool // made by Dial: its outbound link is up; guarded by net.mu

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []inPkt
	deadline time.Time
	closed   bool
}

var _ net.PacketConn = (*PacketConn)(nil)

func (c *PacketConn) enqueue(payload []byte, from *net.UDPAddr) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.queue = append(c.queue, inPkt{payload: payload, from: from})
	c.cond.Broadcast()
	c.mu.Unlock()
}

// ReadFrom blocks on the simulated timeline until a datagram arrives,
// the read deadline passes (virtual time), or the conn closes.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, nil, net.ErrClosed
		}
		if len(c.queue) > 0 {
			pkt := c.queue[0]
			c.queue = c.queue[1:]
			n := copy(p, pkt.payload)
			c.clk.touch()
			return n, pkt.from, nil
		}
		if !c.deadline.IsZero() {
			d := c.clk.Until(c.deadline)
			if d <= 0 {
				return 0, nil, errTimeout
			}
			// Arm a wakeup at the deadline so the stepper can reach it.
			c.clk.schedule(d, func(time.Time) {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
		}
		c.cond.Wait()
	}
}

func (c *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	c.net.send(c.laddr, addr.String(), p)
	return len(p), nil
}

func (c *PacketConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.net.unbind(c.laddr.String())
	c.clk.touch()
	return nil
}

func (c *PacketConn) LocalAddr() net.Addr { return c.laddr }

func (c *PacketConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *PacketConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.cond.Broadcast()
	c.mu.Unlock()
	c.clk.touch()
	return nil
}

func (c *PacketConn) SetWriteDeadline(t time.Time) error { return nil }

// Conn is a connected view of a PacketConn: reads filter to the remote
// peer, writes go to it. It satisfies the client's transport interface.
type Conn struct {
	pc    *PacketConn
	raddr *net.UDPAddr
	rkey  string
}

// Read returns the next datagram from the connected peer, discarding
// traffic from anyone else (connected-UDP semantics).
func (c *Conn) Read(p []byte) (int, error) {
	for {
		n, from, err := c.pc.ReadFrom(p)
		if err != nil {
			return 0, err
		}
		if from.String() == c.rkey {
			return n, nil
		}
	}
}

func (c *Conn) Write(p []byte) (int, error) { return c.pc.WriteTo(p, c.raddr) }

func (c *Conn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }

func (c *Conn) Close() error { return c.pc.Close() }

func (c *Conn) LocalAddr() net.Addr  { return c.pc.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr { return c.raddr }

// World bundles a started virtual clock and a fabric on it — the
// standard fixture for simulated tests.
type World struct {
	Clock *VirtualClock
	Net   *Network
}

// NewWorld returns a running simulation world seeded for fault
// determinism.
func NewWorld(seed int64) *World {
	clk := NewVirtualClock()
	clk.Start()
	return &World{Clock: clk, Net: NewNetwork(clk, seed)}
}

// Close stops the clock stepper. Endpoints left open stop making
// progress; close servers and clients first.
func (w *World) Close() { w.Clock.Stop() }

// Debugf prints when LIQUID_SIM_DEBUG is set; handy when bisecting a
// divergent seed.
func Debugf(format string, args ...any) {
	if os.Getenv("LIQUID_SIM_DEBUG") == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "sim: "+format+"\n", args...)
}
