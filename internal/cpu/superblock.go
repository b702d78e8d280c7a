package cpu

import (
	"encoding/binary"
	"errors"
	"slices"
)

// This file is the superblock dispatcher: StepN executes instructions
// in straight-line batches pulled directly out of resident
// instruction-cache lines, with the interrupt probe hoisted to the
// head of each dispatch and the per-fetch accounting settled in bulk.
// One dispatch runs from its head through taken and untaken branches
// and across line ends until a gate closes. It is a pure scheduling
// transformation of Step — every architectural effect, every cycle,
// every statistics counter lands exactly as the single-step
// interpreter would land it. The differential tests in
// superblock_diff_test.go and regrun_test.go enforce that bit for bit.
//
// Why hoisting the interrupt probe is exact: between two dispatch heads
// no peripheral time passes (the SoC settles the prescaler only at
// batch boundaries and on device accesses), so the interrupt
// controller's pending set can change mid-dispatch only through the
// CPU's own doing — a device store (MemEventDevice, which ends both the
// dispatch and the batch) or a PSR write moving PIL/ET (kindStop, or a
// trap, both of which end the dispatch). A dispatch with neither
// observes the same Pending() answer at every instruction boundary
// inside it, however many branches it follows, so probing once at its
// head is indistinguishable from probing every step.
//
// Why per-word fetch from PeekLine is exact: PeekLine succeeds only for
// an enabled direct-mapped cache with the line resident, the one regime
// where FetchWord's hit path is a pure 1-cycle access whose only side
// effect is Hits++ — reproduced here as one cycle per dispatched word
// plus a bulk AddFetchHits per segment. Any other fetch (miss, disabled
// or associative cache, unaligned PC, pending annul) falls back to Step
// itself.

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
	hits, misses     uint64 // icache.FetchCounts at probe start
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
		// Dispatch requires the sequential-flow invariant npc==pc+4
		// with no annul pending, an aligned PC, an instruction cache,
		// and no trap hook (the dispatcher settles the shared step
		// counters per segment, so a mid-segment hook could observe
		// them stale).
		if c.annul || c.npc != c.pc+4 || c.pc&3 != 0 || c.icache == nil ||
			c.OnTrap != nil {
			if err := c.Step(); err != nil {
				return steps, err
			}
			steps++
			continue
		}

		// Interrupt probe, hoisted to the dispatch head (see file
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
		line, ok := c.icache.PeekLine(head)
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
		// A dispatch returns here at a backward-taken target only while
		// fast-forward is possible there (dispatchBlock).
		switch c.spin.mode {
		case spinIdle:
			if c.spin.lastHead == head+1 && c.spinnable(head) {
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

// spinnable reports whether poll-loop fast-forward may probe a loop
// head: no profile and no memory hook attached, and the head not
// blacklisted.
func (c *CPU) spinnable(head uint32) bool {
	return c.prof == nil && c.OnMem == nil && !c.spin.blacklisted(head)
}

// bound returns how many of left steps may run from head before the
// stop address: the dispatched words from a head are contiguous until
// a control transfer, so the stop address becomes a bound on their
// count (modular uint32 arithmetic, so a stopPC below head never
// binds, and an unaligned one never matches).
func bound(left int, head, stopPC uint32) int {
	if d := stopPC - head; d&3 == 0 && int(d/4) < left {
		return int(d / 4)
	}
	return left
}

// dispatchBlock executes instructions out of resident cache lines
// until a kindStop terminator, a trap, an annulled delay slot, a line
// miss, or one of StepN's gates closes. It returns the updated step
// count and the processor error, if any.
//
// A dispatch is a chain of segments, each a contiguous run of words
// [head, head+4k): sequential flow across resident lines, then at most
// one CTI and its delay slot. So the gates that depend only on the PC
// are settled once per segment: the PC stays aligned, and the stop
// address becomes a bound on k (bound). A pending annul can only come
// from the CTI, so it is tested only there. That leaves five checks
// before each instruction — the step bound, the cycle limit, a device
// event, a line crossing and the predecode key — and every stop lands
// exactly where a caller stepping one instruction at a time would
// observe it.
//
// When a CTI has run, its delay slot runs next in the same pass if it
// is a live register op in a resident line (any other slot runs
// through the loop and ends the dispatch). Flow is then sequential at
// the target, nPC = PC+4 with no annul, and the dispatch chains on: the
// target heads a new segment, whose gates and line the loop head
// checks as for any instruction. The chained head skips StepN's
// interrupt probe (exact: see the file comment) and its spin
// bookkeeping, which the dispatch returns for only at a backward-taken
// target where fast-forward could fire (spinnable). The instruction
// counter, the fetch hits and the profile credit settle at every
// segment's end (chain), so a memory hook reading them mid-dispatch
// finds them as at a StepN block boundary.
//
// A register run — consecutive register ops (classify's kindReg) to
// the end of the line — runs as one batch. Each of its instructions
// costs exactly one cycle (the fetch hit), raises no trap and no device
// event and leaves CWP, PIL and ET alone, so the gates cannot close
// inside it except by count: n = min(run, steps left, cycles left)
// instructions run back to back, and Cycles, PC/nPC and the step count
// advance by n at once. The run's length is measured once and cached
// on the entry it starts at, valid for the run epoch (retireRuns) it
// was measured in.
func (c *CPU) dispatchBlock(line []byte, head uint32, maxSteps int, cycleLimit uint64, stopPC uint32, steps int) (int, error) {
	lineMask := uint32(len(line) - 1)
	lineBase := head &^ lineMask
	// The step counter, the instruction counter, the fetch-hit counter
	// and the execution profile all advance by exactly 1 per
	// dispatched instruction, so the loop keeps a single local count
	// for the segment and settles all four at its end (nothing inside
	// a segment reads them: the trap hook is gated off at entry, and
	// the spin probe samples them between dispatches). The lone
	// exception is a decode failure, whose step consumes a fetch hit
	// but no instruction.
	c.disp = dispatch{head: head, stopPC: stopPC, steps: steps, maxSteps: maxSteps}
	kmax := bound(maxSteps-steps, head, stopPC)
	k := 0
	extra := 0 // decode-failure step: 1 step, 1 fetch hit, no instruction
	var fail error
	for k < kmax && c.Cycles < cycleLimit && c.MemEvents&MemEventDevice == 0 {
		pc := c.pc
		if pc&^lineMask != lineBase {
			next, ok := c.icache.PeekLine(pc)
			if !ok {
				break // miss: Step performs the fill with exact accounting
			}
			line, lineBase = next, pc&^lineMask
		}
		c.instStart = c.Cycles
		i := (pc >> 2) & predecodeMask
		e := &c.predecode[i]
		// A live key is trusted without re-reading the line word:
		// every path that can change fetched memory tears the entry
		// down first (CPU stores invalidate per touched word, a line
		// refill drops the entries its words no longer match, and
		// user-port pokes, program loads, cache flushes and FLUSH
		// start a new generation), so a live entry's word and decode
		// are current. Step's own word compare covers the same
		// protocol and is free there, where the word is fetched
		// anyway.
		if e.key != c.genKey|uint64(pc+1) {
			if c.decode(e, pc, binary.BigEndian.Uint32(line[pc&lineMask:])) != nil {
				// Step's order: the fetch cycle lands, then the
				// decode failure traps.
				c.Cycles++
				extra = 1
				fail = c.trap(TrapIllegalInst)
				break
			}
		}
		// A lone register op goes through its handler below, which is
		// exact for any register op and cheaper than a batch of one:
		// a delay slot (one step left) skips the batch path, and
		// measureRun demotes the head of a run of one to kindOne.
		kind := e.kind
		if kind == kindReg && kmax-k > 1 {
			n := int(e.run)
			if e.runGen != c.runGen {
				n = c.measureRun(line, lineMask, pc)
			}
			n = min(n, kmax-k)
			if d := cycleLimit - c.Cycles; d < uint64(n) {
				n = int(d)
			}
			if n > 1 {
				// mov, lcc's commonest op, is called directly,
				// where it inlines; every other op takes the
				// handler table, as in Step.
				run := c.predecode[i : i+uint32(n)]
				for j := range run {
					switch r := &run[j]; r.h {
					case hMOVr:
						movR(c, &r.in)
					case hMOVi:
						movI(c, &r.in)
					default:
						handlers[r.h](c, &r.in)
					}
				}
				k += n
				c.Cycles += uint64(n)
				c.instStart = c.Cycles - 1
				c.pc = c.npc + 4*uint32(n-1)
				c.npc = c.pc + 4
				continue
			}
		}
		c.Cycles++ // pure 1-cycle fetch hit (see PeekLine contract)
		c.nnpc = c.npc + 4
		err := handlers[e.h](c, &e.in)
		k++
		if err != nil {
			if !errors.Is(err, errTrapped) {
				fail = err
			}
			break // trap vectored (or error mode): dispatch over
		}
		c.pc, c.npc = c.npc, c.nnpc
		if kind < kindCTI {
			continue
		}
		if kind == kindStop || c.annul || k >= kmax || c.Cycles >= cycleLimit {
			break // an annulled slot is Step's, as is a slot past a gate
		}
		// The delay slot.
		pc = c.pc
		if pc&^lineMask != lineBase {
			next, ok := c.icache.PeekLine(pc)
			if !ok {
				break
			}
			line, lineBase = next, pc&^lineMask
		}
		d := &c.predecode[(pc>>2)&predecodeMask]
		if d.key != c.genKey|uint64(pc+1) || d.kind > kindReg {
			kmax = k + 1 // it runs through the loop, then the dispatch ends
			continue
		}
		c.instStart = c.Cycles
		c.Cycles++
		handlers[d.h](c, &d.in)
		k++
		// Chain on at the target: flow is sequential there, and the
		// segment [head, head+4k) is complete. The loop head checks the
		// new segment's gates and its line, as for any instruction.
		target := c.npc
		backward := target <= c.pc
		c.pc, c.npc = target, target+4
		if backward && c.spinnable(target) {
			break
		}
		kmax, k = c.chain(target, k), 0
	}
	c.stats.Instructions += uint64(k)
	if c.prof != nil && k > 0 {
		c.prof.creditBlock(c.disp.head, k)
	}
	c.icache.AddFetchHits(uint64(k + extra))
	return c.disp.steps + k + extra, fail
}

// dispatch is the state of a dispatchBlock call that only its chaining
// path changes: the head of the current segment, the steps run before
// it, and StepN's step bound and stop address. The CPU holds it, so
// none of it is a value the per-instruction loop keeps live across its
// handler calls.
type dispatch struct {
	head, stopPC    uint32
	steps, maxSteps int
}

// chain settles the k instructions of the segment just completed, as
// dispatchBlock's exit does, and starts the next segment at target,
// returning its step bound.
func (c *CPU) chain(target uint32, k int) int {
	d := &c.disp
	c.stats.Instructions += uint64(k)
	if c.prof != nil {
		c.prof.creditBlock(d.head, k)
	}
	c.icache.AddFetchHits(uint64(k))
	d.steps += k
	d.head = target
	return bound(d.maxSteps-d.steps, target, d.stopPC)
}

// measureRun returns the length of the register run starting at pc,
// whose entry is live and kindReg: the consecutive register ops from
// pc to the end of its line, decoding the words the table does not
// hold. It caches the length on pc's entry under the current run epoch
// (after the decodes, which may have started a new one). A run also
// ends where the table index wraps, so its entries are contiguous and
// distinct however long the line, and at 255 words, the most the entry
// holds.
//
// A run of one demotes its entry to kindOne, so the op runs through its
// handler with no run check until it is decoded again. That is exact,
// as every register op is a straight-line op. It costs a batch only if
// a later word of the line becomes a register op while the entry lives,
// which takes a store and a line refill with no FLUSH between (a FLUSH
// starts a new generation): code that rewrites itself without one.
// Later words are tested as register ops of either kind, so a demoted
// op still counts in a run that reaches it from an earlier head.
func (c *CPU) measureRun(line []byte, lineMask, pc uint32) int {
	n := 1
	for p := pc + 4; p&lineMask != 0 && (p>>2)&predecodeMask != 0 && n < 255; p += 4 {
		e := &c.predecode[(p>>2)&predecodeMask]
		if e.key != c.genKey|uint64(p+1) &&
			c.decode(e, p, binary.BigEndian.Uint32(line[p&lineMask:])) != nil {
			break
		}
		if e.kind > kindReg {
			break
		}
		n++
	}
	e := &c.predecode[(pc>>2)&predecodeMask]
	e.run, e.runGen = uint8(n), c.runGen
	if n == 1 {
		e.kind = kindOne
	}
	return n
}

// spinProbeStart snapshots the architectural state and counter
// baselines at a candidate loop head.
func (c *CPU) spinProbeStart(head uint32, steps int) {
	s := &c.spin
	s.mode, s.head = spinProbing, head
	copy(s.regs[:c.usedSlots()], c.regs[:])
	s.psr, s.wim, s.tbr, s.y = c.psr, c.wim, c.tbr, c.y
	s.cycles, s.stats = c.Cycles, c.stats
	s.hits, s.misses = c.icache.FetchCounts()
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
	_, misses := c.icache.FetchCounts()
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
	hits, _ := c.icache.FetchCounts()
	if dh := hits - s.hits; dh > 0 {
		c.icache.AddFetchHits(m * dh)
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
