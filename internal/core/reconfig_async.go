package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

// Asynchronous reconfiguration: a miss no longer blocks the caller (or
// the board's command queue) for the modelled ≈1 h synthesis. The
// request acquires a ticket from the shared synthesis service and
// returns immediately; the swap is applied by whoever pumps next —
// ReconfigureStatus (wired as the platform's CmdReconfigStatus and
// CmdWaitReconfig handler, so on a server it runs on the board worker
// goroutine, which owns the platform state a full swap resets),
// WaitReconfigure, or the ticket watcher, which wakes whoever installed
// the board's wake hook (the server's board worker) and pumps itself
// only when no one did. Either kind of swap
// runs on the board actor between step slices. A full swap is deferred
// while a run is in flight (ReconfigSwapping) and lands at the next
// pump after the run completes; partial (cache-only) swaps land
// immediately, even mid-run.

// pendingReconfig is the one in-flight asynchronous reconfiguration a
// board can have; fields are written under s.mu (the ticket has its
// own synchronization).
type pendingReconfig struct {
	cfg       leon.Config
	key       string
	ticket    *reconfig.Ticket
	coalesced bool // joined another caller's in-flight synthesis
	done      chan struct{}
	span      tracing.SpanHandle // "reconfigure", ends at the terminal state
	synthSpan tracing.SpanHandle // "synthesize" child, ends with the ticket
	synthDone bool
}

// ReconfigureAsync starts (or coalesces onto) an asynchronous swap to
// cfg and returns the ticket status without waiting for synthesis. A
// cached configuration on an idle board applies before returning
// (state ReconfigApplied) — the millisecond path the paper's cache
// exists for. Re-requesting the configuration already in flight is
// idempotent; requesting a different one while a swap is pending is an
// error.
func (s *System) ReconfigureAsync(cfg leon.Config) (netproto.ReconfigStatusResp, error) {
	return s.ReconfigureAsyncCtx(tracing.Ctx{}, cfg)
}

// ReconfigureAsyncCtx is ReconfigureAsync under an exchange-trace
// context: the "reconfigure" span opens here and ends when the swap
// reaches a terminal state, possibly exchanges later.
func (s *System) ReconfigureAsyncCtx(tc tracing.Ctx, cfg leon.Config) (netproto.ReconfigStatusResp, error) {
	if err := cfg.Validate(); err != nil {
		return netproto.ReconfigStatusResp{}, fmt.Errorf("core: invalid configuration: %w", err)
	}
	key := synth.ConfigKey(cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pending; p != nil {
		if p.key == key {
			// Idempotent re-request (a retransmission, or a second
			// client asking for the same point).
			return s.pumpLocked(), nil
		}
		st := s.pumpLocked()
		if s.pending != nil {
			return st, fmt.Errorf("core: reconfiguration to %s already in flight", s.pending.key)
		}
		// The pump just retired the previous swap; fall through.
	}
	t, coalesced := s.manager.Acquire(cfg)
	p := &pendingReconfig{
		cfg:       cfg,
		key:       key,
		ticket:    t,
		coalesced: coalesced,
		done:      make(chan struct{}),
		span:      tc.Start("reconfigure"),
	}
	if !t.CacheHit() {
		p.synthSpan = p.span.Ctx().Start("synthesize")
	}
	s.pending = p
	st := s.pumpLocked()
	if !st.Terminal() {
		go s.watchTicket(p)
	}
	return st, nil
}

// watchTicket waits for the pending ticket's synthesis to finish, then
// fires the board's wake hook, the same one every run completion fires:
// the woken board worker pumps the swap on its own goroutine, which
// owns the platform state a full swap resets. With no hook installed
// (no server mounted), the watcher pumps the swap itself.
func (s *System) watchTicket(p *pendingReconfig) {
	<-p.ticket.Done()
	s.mu.Lock()
	wake := s.wake
	s.mu.Unlock()
	if wake == nil {
		s.ReconfigureStatus()
		return
	}
	wake()
}

// ReconfigureStatus reports the asynchronous reconfiguration state,
// pumping first: a completed ticket whose swap is still outstanding is
// applied now if the board allows it. With nothing in flight it
// reports the last terminal outcome (ReconfigNone before any). Wired
// as the platform's ReconfigStatusFn, so CmdReconfigStatus and
// CmdWaitReconfig polls — and the server's wake-driven pumps — answer
// through here on the board worker goroutine.
func (s *System) ReconfigureStatus() netproto.ReconfigStatusResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pumpLocked()
}

// pumpLocked advances the pending reconfiguration as far as the board
// allows (s.mu held) and returns the current status.
func (s *System) pumpLocked() netproto.ReconfigStatusResp {
	p := s.pending
	if p == nil {
		return s.lastReconfig
	}
	switch p.ticket.State() {
	case reconfig.TicketQueued:
		return netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigQueued}
	case reconfig.TicketSynthesizing:
		return netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigSynthesizing}
	}
	img, err := p.ticket.Image()
	s.endSynthSpanLocked(p, err)
	if err != nil {
		return s.finishPendingLocked(p, false, false, err)
	}
	hit := p.ticket.CacheHit()
	partial, aerr := s.applyLocked(p.cfg, img, hit, !hit && !p.coalesced)
	if errors.Is(aerr, leon.ErrRunning) {
		// Image ready, board busy: the swap lands at the next pump
		// after the run completes (the server pumps on every wake).
		return netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigSwapping, CacheHit: hit}
	}
	return s.finishPendingLocked(p, hit, partial, aerr)
}

// endSynthSpanLocked closes the pending swap's "synthesize" child span
// exactly once, when its ticket completes.
func (s *System) endSynthSpanLocked(p *pendingReconfig, err error) {
	if p.synthDone || !p.synthSpan.On() {
		p.synthDone = true
		return
	}
	p.synthDone = true
	status := "ok"
	if err != nil {
		status = "error"
	}
	p.synthSpan.EndAttrs(
		tracing.A("coalesced", fmt.Sprintf("%t", p.coalesced)),
		tracing.A("status", status),
	)
}

// finishPendingLocked retires the pending swap with a terminal status,
// records it for later polls, ends its span and wakes waiters.
func (s *System) finishPendingLocked(p *pendingReconfig, hit, partial bool, err error) netproto.ReconfigStatusResp {
	st := netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigApplied, CacheHit: hit, Partial: partial}
	if err != nil {
		st = netproto.ReconfigStatusResp{Status: netproto.StatusError, State: netproto.ReconfigFailed, CacheHit: hit, Msg: err.Error()}
	}
	s.lastReconfig = st
	s.pending = nil
	if p.span.On() {
		outcome := "miss"
		if hit {
			outcome = "hit"
		}
		kind := "full"
		if partial {
			kind = "partial"
		}
		status := "ok"
		if err != nil {
			status = "error"
		}
		p.span.EndAttrs(
			tracing.A("cache", outcome),
			tracing.A("kind", kind),
			tracing.A("status", status),
		)
	}
	close(p.done)
	return st
}

// WaitReconfigure blocks until the asynchronous reconfiguration
// reaches a terminal state (or ctx ends), pumping the deferred swap
// itself so it completes even without a server mounted. It returns the
// terminal status; the error is non-nil only for ctx expiry.
func (s *System) WaitReconfigure(ctx context.Context) (netproto.ReconfigStatusResp, error) {
	clk := sim.Or(s.opts.Clock)
	for {
		s.mu.Lock()
		st := s.pumpLocked()
		p := s.pending
		s.mu.Unlock()
		if p == nil {
			return st, nil
		}
		select {
		case <-p.done:
		case <-clk.After(time.Millisecond):
			// Re-pump: a full swap deferred behind a run lands once the
			// run completes.
		case <-ctx.Done():
			return s.ReconfigureStatus(), ctx.Err()
		}
	}
}

// Prewarm acquires synthesis tickets for every configuration without
// swapping any of them in — the runtime face of Pregenerate, feeding
// the shared pool and returning how many tickets were queued (or were
// already in flight/cached). Callers observe completion through the
// liquid_reconfig_* queue/inflight metrics or by reconfiguring.
func (s *System) Prewarm(cfgs []leon.Config) int {
	for _, cfg := range cfgs {
		s.manager.Acquire(cfg)
	}
	return len(cfgs)
}

// reconfigAsyncFromSpec is the CmdReconfigure handler: a
// {"prewarm":[spec,...]} body queues a sweep on the synthesis pool; a
// plain spec body starts (or coalesces onto) an asynchronous swap. The
// returned status is compressed into the RunReport-shaped ack.
func (s *System) reconfigAsyncFromSpec(tc tracing.Ctx, blob []byte) (netproto.ReconfigStatusResp, error) {
	var pw struct {
		Prewarm []Spec `json:"prewarm"`
	}
	if err := json.Unmarshal(blob, &pw); err == nil && len(pw.Prewarm) > 0 {
		base := s.Config()
		cfgs := make([]leon.Config, 0, len(pw.Prewarm))
		for _, sp := range pw.Prewarm {
			cfg, err := sp.ToConfig(base)
			if err != nil {
				return netproto.ReconfigStatusResp{}, err
			}
			cfgs = append(cfgs, cfg)
		}
		n := s.Prewarm(cfgs)
		return netproto.ReconfigStatusResp{
			Status: netproto.StatusOK,
			State:  netproto.ReconfigQueued,
			Queued: uint32(n),
		}, nil
	}
	var spec Spec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return netproto.ReconfigStatusResp{}, fmt.Errorf("core: bad reconfigure spec: %w", err)
	}
	cfg, err := spec.ToConfig(s.Config())
	if err != nil {
		return netproto.ReconfigStatusResp{}, err
	}
	return s.ReconfigureAsyncCtx(tc, cfg)
}
