package fpx

import (
	"fmt"

	"liquidarch/internal/netproto"
)

// Switch models the four-port NID switch of Fig. 2: the network
// interface device that routes cells between the line card and the
// RAD(s). Here it routes IPv4/UDP frames by destination address to up
// to four attached platforms; traffic for unknown destinations passes
// through (toward the line card), as the FPX forwards non-local flows.
type Switch struct {
	nodes map[[4]byte]*Platform
	stats SwitchStats
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Delivered uint64 // frames handed to an attached RAD
	Forwarded uint64 // frames for non-local destinations
	Bad       uint64 // unparseable frames
}

// NIDPorts is the hardware port count of the FPX NID.
const NIDPorts = 4

// NewSwitch returns an empty switch.
func NewSwitch() *Switch {
	return &Switch{nodes: make(map[[4]byte]*Platform)}
}

// Attach connects a platform to a switch port. At most NIDPorts
// platforms, with distinct IPs, can be attached.
func (s *Switch) Attach(p *Platform) error {
	if len(s.nodes) >= NIDPorts {
		return fmt.Errorf("fpx: NID switch has only %d ports", NIDPorts)
	}
	if _, dup := s.nodes[p.IP]; dup {
		return fmt.Errorf("fpx: switch already has a node at %d.%d.%d.%d",
			p.IP[0], p.IP[1], p.IP[2], p.IP[3])
	}
	s.nodes[p.IP] = p
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Switch) Stats() SwitchStats { return s.stats }

// Route delivers a frame: a frame addressed to an attached platform
// runs through that platform's wrappers and CPP, and its reply frame,
// if any, comes back toward the ingress port. Frames for other
// destinations are returned as forwarded (second return value true) so
// the caller can put them on the line card.
func (s *Switch) Route(frame []byte) (reply []byte, forwarded bool, err error) {
	f, err := netproto.ParseFrame(frame)
	if err != nil {
		s.stats.Bad++
		return nil, false, fmt.Errorf("fpx: switch: %w", err)
	}
	node, ok := s.nodes[f.IP.Dst]
	if !ok {
		s.stats.Forwarded++
		return nil, true, nil
	}
	s.stats.Delivered++
	reply, err = node.HandleFrame(frame)
	return reply, false, err
}
