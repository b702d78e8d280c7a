package sim

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"liquidarch/internal/metrics"
)

// Relay carries datagrams between real UDP clients and one target
// through the fabric's fault engine, so a real liquidctl and a real
// liquid-server see the faults a sim.Network link would inject. Each
// client gets its own pair of links, up (client→target) and down
// (target→client), seeded from the relay seed and the order in which
// clients first spoke, and its own socket toward the target, so the
// target still sees one source address per client. Delays ride the
// real clock. The liquid-chaos command is this relay with flags.
type Relay struct {
	listen   *net.UDPConn
	target   *net.UDPAddr
	seed     int64
	up, down LinkParams
	packets  *metrics.CounterVec
	injected *metrics.CounterVec

	mu       sync.Mutex // guards sessions, closed and every session's links
	sessions map[string]*session
	closed   bool
	wg       sync.WaitGroup
}

// session is one client's pair of links and its socket toward the
// target.
type session struct {
	peer     *net.UDPAddr
	out      *net.UDPConn
	up, down *link
}

// NewRelay binds listen (e.g. "127.0.0.1:0") and relays to target,
// applying up to client→target datagrams and down to the replies. It
// counts into reg's liquid_chaos_packets_total{dir} and
// liquid_chaos_injected_total{event}.
func NewRelay(listen, target string, seed int64, up, down LinkParams, reg *metrics.Registry) (*Relay, error) {
	for _, p := range []LinkParams{up, down} {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	la, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("sim: relay listen addr: %w", err)
	}
	ta, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("sim: relay target addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("sim: relay: %w", err)
	}
	return &Relay{
		listen:   conn,
		target:   ta,
		seed:     seed,
		up:       up,
		down:     down,
		packets:  reg.CounterVec("liquid_chaos_packets_total", "Datagrams entering the fault relay, by direction.", "dir"),
		injected: reg.CounterVec("liquid_chaos_injected_total", "Faults injected by the fault relay, by dir_event.", "event"),
		sessions: make(map[string]*session),
	}, nil
}

// Addr returns the bound listen address — point clients here.
func (r *Relay) Addr() *net.UDPAddr { return r.listen.LocalAddr().(*net.UDPAddr) }

// Serve relays datagrams until Close, returning nil on clean shutdown.
func (r *Relay) Serve() error {
	buf := make([]byte, 64<<10)
	for {
		n, peer, err := r.listen.ReadFromUDP(buf)
		if err != nil {
			r.wg.Wait()
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("sim: relay read: %w", err)
		}
		s, err := r.session(peer)
		if err != nil {
			continue // no socket toward the target: the datagram is lost
		}
		r.forward(s.up, buf[:n], func(b []byte) { s.out.Write(b) }) //nolint:errcheck // lossy by design
	}
}

// session returns (or opens) the relay session of a client.
func (r *Relay) session(peer *net.UDPAddr) (*session, error) {
	key := peer.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, net.ErrClosed
	}
	if s, ok := r.sessions[key]; ok {
		return s, nil
	}
	out, err := net.DialUDP("udp", nil, r.target)
	if err != nil {
		return nil, err
	}
	k := len(r.sessions)
	s := &session{
		peer: peer,
		out:  out,
		up:   newLink(r.seed, fmt.Sprintf("up#%d", k), true, r.up),
		down: newLink(r.seed, fmt.Sprintf("down#%d", k), false, r.down),
	}
	s.up.injected, s.down.injected = r.injected, r.injected
	r.sessions[key] = s
	r.wg.Add(1)
	go r.downstream(s)
	return s, nil
}

// downstream relays one client's replies until its socket closes.
func (r *Relay) downstream(s *session) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := s.out.Read(buf)
		if err != nil {
			return
		}
		r.forward(s.down, buf[:n], func(b []byte) { r.listen.WriteToUDP(b, s.peer) }) //nolint:errcheck // lossy by design
	}
}

// forward runs one datagram through l and writes what it lets through,
// a delayed datagram from a timer on the real clock.
func (r *Relay) forward(l *link, p []byte, write func([]byte)) {
	r.packets.With(l.dir()).Inc()
	r.mu.Lock()
	out := l.decide(p)
	r.mu.Unlock()
	for _, d := range out {
		if d.after <= 0 {
			write(d.payload)
			continue
		}
		r.wg.Add(1)
		Real.AfterFunc(d.after, func() {
			defer r.wg.Done()
			write(d.payload)
		})
	}
}

// Close tears the relay down; Serve returns once every client's relay
// and every delayed datagram has finished. Close is idempotent.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	for _, s := range r.sessions {
		s.out.Close()
	}
	r.mu.Unlock()
	return r.listen.Close()
}
