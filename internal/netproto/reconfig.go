package netproto

import (
	"encoding/binary"
	"fmt"
)

// CmdReconfigure is a non-blocking protocol: the server acks a
// reconfigure request immediately with the state of its synthesis
// ticket, CmdReconfigStatus polls that ticket, and CmdWaitReconfig
// parks the exchange server-side (like CmdWaitResult) until the swap
// lands or the hold expires.

// Reconfiguration ticket states on the wire, in lifecycle order.
const (
	ReconfigNone         uint8 = 0 // no reconfiguration in flight or recorded
	ReconfigQueued       uint8 = 1 // ticket waiting for a synthesis-pool slot
	ReconfigSynthesizing uint8 = 2 // modelled tool run in progress
	ReconfigSwapping     uint8 = 3 // image ready; swap deferred until the board is idle
	ReconfigApplied      uint8 = 4 // configuration active on the board
	ReconfigFailed       uint8 = 5 // synthesis or swap failed (Msg says why)
)

// ReconfigStateName names a wire state for telemetry and CLI output.
func ReconfigStateName(s uint8) string {
	switch s {
	case ReconfigNone:
		return "none"
	case ReconfigQueued:
		return "queued"
	case ReconfigSynthesizing:
		return "synthesizing"
	case ReconfigSwapping:
		return "swapping"
	case ReconfigApplied:
		return "applied"
	case ReconfigFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Flag bits carried alongside the state.
const (
	reconfigFlagHit     uint8 = 1 << 0 // image came from the reconfiguration cache
	reconfigFlagPartial uint8 = 1 << 1 // applied as a partial (cache-only) swap
)

// ReconfigStatusResp answers CmdReconfigStatus and CmdWaitReconfig,
// and is the payload the CmdReconfigure ack compresses into RunReport
// spare fields (ReconfigAckReport).
type ReconfigStatusResp struct {
	Status   uint8 // StatusOK, or StatusError when State is Failed
	State    uint8 // Reconfig* lifecycle state
	CacheHit bool  // served from the cache, no synthesis
	Partial  bool  // applied as a partial reconfiguration
	// Queued is the number of tickets a prewarm request accepted (0
	// for single-configuration reconfigures).
	Queued uint32
	Msg    string // failure detail when State is ReconfigFailed
}

// reconfigStatusHeadLen is the fixed part ahead of the message.
const reconfigStatusHeadLen = 7

// Marshal encodes the response body.
func (r ReconfigStatusResp) Marshal() []byte {
	b := make([]byte, reconfigStatusHeadLen, reconfigStatusHeadLen+len(r.Msg))
	b[0] = r.Status
	b[1] = r.State
	b[2] = r.flags()
	binary.BigEndian.PutUint32(b[3:], r.Queued)
	return append(b, r.Msg...)
}

func (r ReconfigStatusResp) flags() uint8 {
	var f uint8
	if r.CacheHit {
		f |= reconfigFlagHit
	}
	if r.Partial {
		f |= reconfigFlagPartial
	}
	return f
}

// ParseReconfigStatusResp decodes the body.
func ParseReconfigStatusResp(b []byte) (ReconfigStatusResp, error) {
	if len(b) < reconfigStatusHeadLen {
		return ReconfigStatusResp{}, fmt.Errorf("netproto: reconfig status truncated (%d bytes)", len(b))
	}
	return ReconfigStatusResp{
		Status:   b[0],
		State:    b[1],
		CacheHit: b[2]&reconfigFlagHit != 0,
		Partial:  b[2]&reconfigFlagPartial != 0,
		Queued:   binary.BigEndian.Uint32(b[3:]),
		Msg:      string(b[reconfigStatusHeadLen:]),
	}, nil
}

// The CmdReconfigure ack keeps the RunReport wire shape and packs the
// ticket state into the report's otherwise-unused fields (the same
// spare-field scheme load acks use): Cycles holds the Reconfig* state,
// Instructions the prewarm queue count, and TT the hit/partial flags.
// Status is StatusOK exactly when the swap already happened inside the
// ack (the cached path on an idle board).

// ReconfigAckReport compresses a ticket status into the RunReport-
// shaped CmdReconfigure ack.
func ReconfigAckReport(st ReconfigStatusResp) RunReport {
	status := StatusRunning
	switch st.State {
	case ReconfigApplied, ReconfigNone:
		status = StatusOK
	case ReconfigFailed:
		status = StatusError
	}
	return RunReport{
		Status:       status,
		Cycles:       uint64(st.State),
		Instructions: uint64(st.Queued),
		TT:           st.flags(),
	}
}

// ReconfigAckInfo recovers the ticket status from a CmdReconfigure
// ack.
func ReconfigAckInfo(rep RunReport) ReconfigStatusResp {
	return ReconfigStatusResp{
		Status:   rep.Status,
		State:    uint8(rep.Cycles),
		CacheHit: rep.TT&reconfigFlagHit != 0,
		Partial:  rep.TT&reconfigFlagPartial != 0,
		Queued:   uint32(rep.Instructions),
	}
}

// Terminal reports whether the state is final (Applied or Failed).
func (r ReconfigStatusResp) Terminal() bool {
	return r.State == ReconfigApplied || r.State == ReconfigFailed
}
