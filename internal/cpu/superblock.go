package cpu

import (
	"encoding/binary"
	"errors"
	"slices"

	"liquidarch/internal/isa"
)

// This file is the superblock dispatcher: StepN executes instructions
// in straight-line batches pulled directly out of resident
// instruction-cache lines, with the interrupt probe hoisted to block
// heads and the per-fetch accounting settled in bulk. It is a pure
// scheduling transformation of Step — every architectural effect, every
// cycle, every statistics counter lands exactly as the single-step
// interpreter would land it. The differential tests in diff_test.go
// enforce that bit for bit.
//
// Why hoisting the interrupt probe is exact: between two block heads no
// peripheral time passes (the SoC settles the prescaler only at batch
// boundaries and on device accesses), so the interrupt controller's
// pending set can change mid-block only through the CPU's own doing — a
// device store (MemEventDevice, which ends both the block and the
// batch) or a PSR write moving PIL/ET (kindStop, which ends the
// block). A block with neither observes the same Pending() answer at
// every instruction boundary inside it, so probing once at the head is
// indistinguishable from probing every step.
//
// Why per-word fetch from PeekLine is exact: PeekLine succeeds only for
// an enabled direct-mapped cache with the line resident, the one regime
// where FetchWord's hit path is a pure 1-cycle access whose only side
// effect is Hits++ — reproduced here as one cycle per dispatched word
// plus a single AddFetchHits at block exit. Any other fetch (miss,
// disabled or associative cache, unaligned PC, pending annul) falls
// back to Step itself.

// spinBadSize is the direct-mapped blacklist of loop heads whose
// fast-forward probe failed (ordinary working loops: they mutate state
// every iteration). Blacklisted heads are never probed again until the
// predecode cache is invalidated, so a hot loop pays the probe once.
const spinBadSize = 64

const (
	spinIdle uint8 = iota
	spinProbing
)

// spinState is the scratch for poll-loop fast-forward detection. All
// storage is inline so probing allocates nothing on the dispatch path.
type spinState struct {
	mode     uint8
	lastHead uint32 // tag (pc+1) of the previous block-entry head
	head     uint32 // pc being probed

	// Snapshot of architectural state and counter baselines taken at
	// probe start (pc==head, npc==head+4, annul clear — implied).
	regs             [regSlots]uint32 // the used slots (below the sink)
	psr, wim, tbr, y uint32
	cycles           uint64
	stats            Stats
	hits, misses     uint64 // lfetch.FetchCounts at probe start
	steps            int    // StepN step counter at probe start
	bad              [spinBadSize]uint32
}

// reset forgets everything including the blacklist; called whenever the
// predecode cache is invalidated (code may have changed).
func (s *spinState) reset() {
	s.mode, s.lastHead, s.head = spinIdle, 0, 0
	for i := range s.bad {
		s.bad[i] = 0
	}
}

// beginBatch abandons any in-flight probe but keeps the blacklist.
func (s *spinState) beginBatch() {
	s.mode, s.lastHead, s.head = spinIdle, 0, 0
}

func (s *spinState) blacklist(pc uint32) {
	s.bad[(pc>>2)&(spinBadSize-1)] = pc + 1
}

func (s *spinState) blacklisted(pc uint32) bool {
	return s.bad[(pc>>2)&(spinBadSize-1)] == pc+1
}

// StepN executes whole instructions until one of its gates closes:
// maxSteps instructions (interrupt deliveries and annulled slots count
// as one each, as they do for Step calls), the cycle counter reaching
// cycleLimit (checked before each instruction, so the final instruction
// may overshoot — the same boundary a caller stepping one instruction
// at a time and testing Cycles between steps observes), the program
// counter landing on stopPC (checked before each instruction, matching
// a caller testing PC between steps), or a device access
// (MemEventDevice — peripheral deadlines may have moved, so the caller
// must settle and recompute its horizon). It returns the number of
// steps executed and the *ErrorMode, if any, that stopped it.
//
// The caller guarantees nothing else touches the machine during the
// call (the SoC's actor already serializes accesses) and that
// peripheral time owed up to the entry cycle count has been settled.
func (c *CPU) StepN(maxSteps int, cycleLimit uint64, stopPC uint32) (int, error) {
	steps := 0
	c.MemEvents = 0
	c.spin.beginBatch()
	for steps < maxSteps && c.Cycles < cycleLimit && c.MemEvents&MemEventDevice == 0 {
		if c.pc == stopPC {
			break
		}
		// Block entry requires the sequential-flow invariant
		// npc==pc+4 with no annul pending, an aligned PC, a
		// line-peekable fetch path, and no trap hook (the dispatcher
		// settles the shared step counters at block exit, so a
		// mid-block hook could observe them stale).
		if c.annul || c.npc != c.pc+4 || c.pc&3 != 0 || c.lfetch == nil ||
			c.OnTrap != nil {
			if err := c.Step(); err != nil {
				return steps, err
			}
			steps++
			continue
		}

		// Interrupt probe, hoisted to the block head (see file
		// comment for the exactness argument).
		if c.irq != nil && c.psr&PSRET != 0 {
			if lvl := c.irq.Pending(); lvl == 15 || (lvl > 0 && lvl > c.pil()) {
				c.instStart = c.Cycles
				c.irq.Ack(lvl)
				c.stats.Interrupts++
				steps++
				if err := c.trap(uint8(TrapInterruptBase + lvl)); err != nil {
					return steps, err
				}
				continue
			}
		}

		head := c.pc
		line, ok := c.lfetch.PeekLine(head)
		if !ok {
			// Miss or non-direct configuration: Step performs the
			// fill (or bus fetch) with exact accounting.
			if err := c.Step(); err != nil {
				return steps, err
			}
			steps++
			continue
		}

		// Poll-loop fast-forward bookkeeping (allocation-free). It is
		// off while a profile or a memory hook is attached: a
		// forwarded iteration would credit no PC and report no access.
		switch c.spin.mode {
		case spinIdle:
			if c.spin.lastHead == head+1 && !c.spin.blacklisted(head) && c.prof == nil && c.OnMem == nil {
				c.spinProbeStart(head, steps)
			} else {
				c.spin.lastHead = head + 1
			}
		case spinProbing:
			if head == c.spin.head {
				if m := c.spinQualify(maxSteps, cycleLimit, steps); m > 0 {
					steps = c.spinForward(m, steps)
				}
				c.spin.mode = spinIdle
				c.spin.lastHead = head + 1
			} else if steps-c.spin.steps > 4096 {
				// Never came back around: not a tight loop.
				c.spin.blacklist(c.spin.head)
				c.spin.mode = spinIdle
			}
		}

		var err error
		steps, err = c.dispatchBlock(line, head, maxSteps, cycleLimit, stopPC, steps)
		if err != nil {
			return steps, err
		}
	}
	return steps, nil
}

// dispatchBlock executes instructions out of resident cache lines
// until a kindStop terminator, a completed control transfer (the CTI
// and its delay slot both execute in-block, then control returns to
// StepN so the interrupt probe and spin bookkeeping run at the branch
// target), a line miss, or one of StepN's gates. Sequential flow
// continues across line boundaries as long as the next line is
// resident. It returns the updated step count and the processor error,
// if any.
//
// The dispatched instructions are the contiguous words [head, head+4k):
// sequential flow, then at most one CTI and its delay slot. So the
// gates that depend only on the PC are settled once, at entry: the PC
// stays aligned, and the stop address becomes a bound on k (modular
// uint32 arithmetic, so a stopPC below head never binds). A pending
// annul can only come from the CTI, so it is tested only there. That
// leaves five checks before each instruction — the step bound, the
// cycle limit, a device event, a line crossing and the predecode tag —
// and every stop lands exactly where a caller stepping one instruction
// at a time would observe it.
func (c *CPU) dispatchBlock(line []byte, head uint32, maxSteps int, cycleLimit uint64, stopPC uint32, steps int) (int, error) {
	lineMask := uint32(len(line) - 1)
	lineBase := head &^ lineMask
	// The step counter, the instruction counter, the fetch-hit counter
	// and the execution profile all advance by exactly 1 per
	// dispatched instruction, so the loop keeps a single local count
	// and settles all four at block exit (nothing inside a block reads
	// them: the trap hook is gated off at block entry, and the spin
	// probe samples them between blocks). The lone exception is a
	// decode failure, whose step consumes a fetch hit but no
	// instruction.
	kmax := maxSteps - steps
	if d := stopPC - head; d&3 == 0 && int(d/4) < kmax {
		kmax = int(d / 4)
	}
	k := 0
	extra := 0 // decode-failure step: 1 step, 1 fetch hit, no instruction
	var fail error
	for k < kmax && c.Cycles < cycleLimit && c.MemEvents&MemEventDevice == 0 {
		pc := c.pc
		if pc&^lineMask != lineBase {
			next, ok := c.lfetch.PeekLine(pc)
			if !ok {
				break // miss: Step performs the fill with exact accounting
			}
			line = next
			lineMask = uint32(len(line) - 1)
			lineBase = pc &^ lineMask
		}
		c.instStart = c.Cycles
		e := &c.predecode[(pc>>2)&predecodeMask]
		// A tag hit is trusted without re-reading the line word:
		// every path that can change fetched memory tears the entry
		// down first (CPU stores invalidate per touched word,
		// user-port pokes, program loads, cache flushes and FLUSH
		// invalidate wholesale), so tag==pc+1 implies word and decode
		// are current. Step's own word compare covers the same
		// protocol and is free there, where the word is fetched
		// anyway.
		if e.tag != pc+1 {
			word := binary.BigEndian.Uint32(line[pc&lineMask:])
			in, derr := isa.Decode(word)
			if derr != nil {
				// Step's order: the fetch cycle lands, then the
				// decode failure traps.
				c.Cycles++
				extra = 1
				fail = c.trap(TrapIllegalInst)
				break
			}
			e.set(pc, word, in)
		}
		// FLUSH zeroes the predecode tags from inside its handler, so
		// the kind must be read before executing.
		kind := e.kind
		c.Cycles++ // pure 1-cycle fetch hit (see PeekLine contract)
		c.nnpc = c.npc + 4
		err := handlers[e.h](c, &e.in)
		k++
		if err != nil {
			if !errors.Is(err, errTrapped) {
				fail = err
			}
			break // trap vectored (or error mode): block over
		}
		c.pc, c.npc = c.npc, c.nnpc
		if kind != kindFast {
			if kind == kindStop || c.annul {
				break // an annulled slot is Step's
			}
			kmax = min(kmax, k+1) // the CTI's delay slot, then the block ends
		}
	}
	c.stats.Instructions += uint64(k)
	if c.prof != nil {
		c.prof.creditRange(head, k)
	}
	if hits := uint64(k + extra); hits > 0 {
		c.lfetch.AddFetchHits(hits)
	}
	return steps + k + extra, fail
}

// spinProbeStart snapshots the architectural state and counter
// baselines at a candidate loop head.
func (c *CPU) spinProbeStart(head uint32, steps int) {
	s := &c.spin
	s.mode, s.head = spinProbing, head
	copy(s.regs[:c.usedSlots()], c.regs[:])
	s.psr, s.wim, s.tbr, s.y = c.psr, c.wim, c.tbr, c.y
	s.cycles, s.stats = c.Cycles, c.stats
	s.hits, s.misses = c.lfetch.FetchCounts()
	s.steps = steps
	// Events are re-observed per probe so a flag set earlier in the
	// batch can't mask an access made during the probed iteration. A
	// device flag would already have ended the batch, so only the
	// (advisory) cached-access bit can be pending here.
	c.MemEvents = 0
}

// spinQualify decides, back at the probed head, whether the iteration
// just emulated was a pure spin — identical architectural state, no
// stores, no cache or device interaction, no traps or interrupts, and
// instruction fetches that were all resident hits — and if so how many
// more iterations can be fast-forwarded without closing a StepN gate.
// Pure iterations are exactly replayable: with registers bit-identical
// and no state anywhere else touched, every subsequent iteration is
// the same deterministic function of the same state. Uncached,
// non-device loads (the boot ROM's mailbox poll) are allowed: nothing
// can write that memory inside the batch, so the load returns the same
// value at the same deterministic cost every time.
func (c *CPU) spinQualify(maxSteps int, cycleLimit uint64, steps int) uint64 {
	s := &c.spin
	d := statsDelta(c.stats, s.stats)
	_, misses := c.lfetch.FetchCounts()
	if c.MemEvents != 0 || d.Stores != 0 || d.Traps != 0 || d.Interrupts != 0 ||
		misses != s.misses ||
		c.psr != s.psr || c.wim != s.wim || c.tbr != s.tbr || c.y != s.y ||
		!slices.Equal(c.regs[:c.usedSlots()], s.regs[:c.usedSlots()]) {
		s.blacklist(s.head)
		return 0
	}
	dCycles := c.Cycles - s.cycles
	dSteps := steps - s.steps
	if dCycles == 0 || dSteps <= 0 {
		s.blacklist(s.head)
		return 0
	}
	// Fast-forward m whole iterations, keeping Cycles strictly below
	// cycleLimit and steps within maxSteps so every gate still closes
	// inside emulated code.
	m := (cycleLimit - 1 - c.Cycles) / dCycles
	if byStep := uint64((maxSteps - steps) / dSteps); byStep < m {
		m = byStep
	}
	return m
}

// spinForward replays m qualified iterations by multiplication: the
// cycle counter, the statistics counters a pure iteration can move,
// and the fetch-hit accounting all advance by m times their measured
// per-iteration delta, leaving state exactly as m emulated iterations
// would have left it. Registers need no update — the iteration was
// qualified as a fixed point.
func (c *CPU) spinForward(m uint64, steps int) int {
	s := &c.spin
	d := statsDelta(c.stats, s.stats)
	c.Cycles += m * (c.Cycles - s.cycles)
	c.stats.Instructions += m * d.Instructions
	c.stats.Loads += m * d.Loads
	c.stats.Branches += m * d.Branches
	c.stats.Taken += m * d.Taken
	c.stats.Annulled += m * d.Annulled
	hits, _ := c.lfetch.FetchCounts()
	if dh := hits - s.hits; dh > 0 {
		c.lfetch.AddFetchHits(m * dh)
	}
	return steps + int(m)*(steps-s.steps)
}

func statsDelta(now, then Stats) Stats {
	return Stats{
		Instructions: now.Instructions - then.Instructions,
		Loads:        now.Loads - then.Loads,
		Stores:       now.Stores - then.Stores,
		Branches:     now.Branches - then.Branches,
		Taken:        now.Taken - then.Taken,
		Annulled:     now.Annulled - then.Annulled,
		Traps:        now.Traps - then.Traps,
		Interrupts:   now.Interrupts - then.Interrupts,
	}
}
