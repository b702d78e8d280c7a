package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/cache"
	"liquidarch/internal/isa"
)

// Differential property tests for the superblock dispatcher: a CPU
// driven through StepN — block dispatch, hoisted interrupt probe,
// deferred accounting, poll-loop fast-forward — must be bit-identical
// to one driven through Step alone: registers, control state, memory,
// cycle count, statistics, fetch counters. Any divergence means a
// scheduling transformation leaked into architectural behaviour. Each
// case runs again with an execution profile attached, whose per-PC
// counts must equal those of a hook-free single-step oracle.

// The rig fetches through a real instruction cache, as the SoC does: a
// direct-mapped cache.Cache of 32-byte lines over the flat memory's
// bus. Its lines are copies, so a CPU store (which goes straight to
// memory) leaves a resident line stale until it is refilled — the
// regime the predecode protocol must handle. The default cache covers
// the whole 64 KB memory, so lines conflict only in a test that asks
// for a smaller one, and the program's lines start resident.
const (
	rigMemBytes    = 64 << 10
	rigICacheBytes = 64 << 10
	rigLineBytes   = 32
	// smallRigICache suits a test whose code and vectors share no set
	// in 4 KB, and which builds a rig per case, a thousand of them.
	smallRigICache = 4 << 10
)

// ReadBurst lets the flat memory serve line fills on the rig's bus.
func (m *flatMem) ReadBurst(addr uint32, words []uint32) (int, error) {
	return amba.ReadBurstSingles(m, addr, words)
}

const noStopPC = ^uint32(0) // unaligned: never matches a fetch PC

// sbRig is one differential run: machine a steps through StepN,
// reference b through Step alone, over independent but identical
// memories and instruction caches. With prof set, a carries an
// execution profile, checked against a hook-free oracle: every
// reference step that advances the instruction counter credits the PC
// it started at.
type sbRig struct {
	a, b   *CPU
	am, bm *flatMem
	prof   bool
	got    map[uint32]uint64 // a's harvested profile
	want   map[uint32]uint64 // the oracle's
	aInsts uint64            // a's instruction counter at the start
}

func newRig(t *testing.T, prof bool, airq, birq IRQSource, words ...uint32) *sbRig {
	t.Helper()
	return newRigICache(t, prof, rigICacheBytes, airq, birq, words...)
}

// newRigICache is newRig with an instruction cache of icacheBytes.
func newRigICache(t *testing.T, prof bool, icacheBytes int, airq, birq IRQSource, words ...uint32) *sbRig {
	t.Helper()
	const progBase = 0x1000
	build := func(irq IRQSource) (*CPU, *flatMem) {
		m := newFlat(rigMemBytes)
		for i, w := range words {
			binary.BigEndian.PutUint32(m.data[progBase+i*4:], w)
		}
		bus := amba.NewAHB()
		if err := bus.Map("mem", 0, rigMemBytes, m); err != nil {
			t.Fatal(err)
		}
		ic, err := cache.New(cache.Config{SizeBytes: icacheBytes, LineBytes: rigLineBytes, Assoc: 1}, bus)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(DefaultConfig(), m, m, irq)
		if err != nil {
			t.Fatal(err)
		}
		c.SetICache(ic)
		c.FlushFn = ic.Flush
		for a := uint32(progBase); a < progBase+4*uint32(len(words)); a += rigLineBytes {
			if _, _, _, err := ic.FetchWord(a); err != nil {
				t.Fatal(err)
			}
		}
		c.psr |= PSRET
		c.SetPC(progBase)
		return c, m
	}
	r := &sbRig{prof: prof, got: map[uint32]uint64{}, want: map[uint32]uint64{}}
	r.a, r.am = build(airq)
	r.b, r.bm = build(birq)
	if prof {
		r.aInsts = r.a.Stats().Instructions
		r.a.StartProfile()
	}
	return r
}

// coldLines empties both instruction caches, as an instruction-cache
// flush does (the predecode entries stay): a dispatch that reaches a
// cold line ends there, and Step's fetch fills it.
func (r *sbRig) coldLines(t *testing.T) {
	t.Helper()
	for _, c := range []*CPU{r.a, r.b} {
		if _, err := c.icache.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// poke writes one word into both memories, as a user-port write does:
// behind the instruction caches, which may now hold a stale line.
func (r *sbRig) poke(addr, w uint32) {
	binary.BigEndian.PutUint32(r.am.data[addr:], w)
	binary.BigEndian.PutUint32(r.bm.data[addr:], w)
	r.a.icache.MarkStale()
	r.b.icache.MarkStale()
}

// step advances the reference one Step, feeding the oracle.
func (r *sbRig) step() error {
	pc, n := r.b.PC(), r.b.Stats().Instructions
	err := r.b.Step()
	if r.b.Stats().Instructions != n {
		r.want[pc]++
	}
	return err
}

// stepRef advances the reference n single steps.
func (r *sbRig) stepRef(t *testing.T, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.step(); err != nil {
			t.Fatalf("%s: reference step %d (pc=%#x): %v", tag, i, r.b.PC(), err)
		}
	}
}

// check fails on any state, accounting or fetch-counter divergence.
// When profiled it also harvests a's profile (re-attaching it, so later
// checks exercise the harvest as a running total) and fails unless it
// equals the oracle's and sums to a's instruction-counter advance.
func (r *sbRig) check(t *testing.T, tag string) {
	t.Helper()
	tag = fmt.Sprintf("%s (profiled=%v)", tag, r.prof)
	if d := diffState(r.a, r.b); d != "" {
		t.Fatalf("%s: superblock CPU diverged: %s", tag, d)
	}
	if sa, sb := r.a.icache.Stats(), r.b.icache.Stats(); sa != sb {
		t.Fatalf("%s: instruction-cache counters diverged: %+v vs %+v", tag, sa, sb)
	}
	if !r.prof {
		return
	}
	r.a.StopProfile(r.got)
	r.a.StartProfile()
	if !reflect.DeepEqual(r.got, r.want) {
		t.Fatalf("%s: profile diverged from the oracle:\n got %v\nwant %v", tag, r.got, r.want)
	}
	var sum uint64
	for _, n := range r.got {
		sum += n
	}
	if d := r.a.Stats().Instructions - r.aInsts; sum != d {
		t.Fatalf("%s: profile sums to %d, instruction counter advanced %d", tag, sum, d)
	}
}

// restart re-attaches a's profile mid-run, discarding its counts as
// trace.Recorder.Reset does, and restarts the oracle with it.
func (r *sbRig) restart() {
	r.a.StartProfile()
	clear(r.got)
	clear(r.want)
	r.aInsts = r.a.Stats().Instructions
}

// profModes runs each differential case unprofiled (fast-forward on)
// and profiled (fast-forward off, every count checked).
var profModes = []bool{false, true}

// countedLoop builds the standard store-and-count loop ending in an
// annulling self-branch (the spin the fast-forward probe feeds on).
func countedLoop(t testing.TB, iters int32) []uint32 {
	t.Helper()
	return []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, movImm(isa.G0+2, iters)),
		enc(t, movImm(isa.O0, 0)),
		// loop:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 3}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G1, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Imm: -3}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}), // delay-slot nop
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),        // spin
	}
}

// TestDiffSuperblockRandomStreams drives seeded random programs
// through StepN in randomly sized batches against a single-stepped
// reference, comparing all state after every batch. The tail spin
// exercises the fast-forward path under the per-batch step cap.
func TestDiffSuperblockRandomStreams(t *testing.T) {
	const progLen = 160
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, prof := range profModes {
				rng := rand.New(rand.NewSource(seed))
				words := randProgram(t, rng, progLen)
				words = append(words, enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}))
				r := newRig(t, prof, nil, nil, words...)
				total := 0
				for total < len(words)+64 {
					n := 1 + rng.Intn(23)
					got, err := r.a.StepN(n, ^uint64(0), noStopPC)
					if err != nil {
						t.Fatalf("StepN after %d steps: %v", total, err)
					}
					if got != n {
						t.Fatalf("StepN(%d) executed %d steps with no gate to close", n, got)
					}
					r.stepRef(t, got, "random stream")
					total += got
					r.check(t, fmt.Sprintf("after %d steps", total))
				}
				if !bytes.Equal(r.am.data, r.bm.data) {
					t.Fatal("memory images diverged")
				}
			}
		})
	}
}

// TestDiffSuperblockSelfModifyingMidBlock overwrites an instruction
// two slots ahead of the executing store — inside the very block being
// dispatched, in the same cache line. Stores do not write the
// instruction cache, so with no FLUSH the resident line still holds
// the old word, and both machines must run it, as the hardware does:
// the store tears the predecoded entry down and the dispatcher decodes
// the word again from the line, exactly as the single-step interpreter
// fetches it.
func TestDiffSuperblockSelfModifyingMidBlock(t *testing.T) {
	const progBase = 0x1000
	// Slot 6 lives at progBase+24 = %g1(0x800) + 0x818.
	newWord := enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 100})
	words := []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 3, Imm: int32(newWord >> 10)}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0 + 3, Rs1: isa.G0 + 3, UseImm: true, Imm: int32(newWord & 0x3FF)}),
		enc(t, movImm(isa.O0, 7)),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.G0 + 3, Rs1: isa.G1, UseImm: true, Imm: 0x818}),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}), // overwritten with +100
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),         // spin
	}
	for _, prof := range profModes {
		r := newRig(t, prof, nil, nil, words...)
		const steps = 7 // up to and including the overwritten slot
		got, err := r.a.StepN(steps, ^uint64(0), noStopPC)
		if err != nil || got != steps {
			t.Fatalf("StepN = %d, %v", got, err)
		}
		r.stepRef(t, steps, "self-modify")
		r.check(t, "after overwritten slot")
		if o0 := r.a.Reg(isa.O0); o0 != 9 {
			t.Fatalf("%%o0 = %d, want 9 (the resident line's old word)", o0)
		}
		if !bytes.Equal(r.am.data, r.bm.data) {
			t.Fatal("memory images diverged")
		}
	}
}

// TestDiffSuperblockCycleLimitEveryOffset sweeps StepN's cycle limit
// across every cycle of a looping program's life: the batch must stop
// at exactly the boundary a caller stepping one instruction at a time
// and testing Cycles between steps would observe, with identical state
// at the split and after resuming to completion.
func TestDiffSuperblockCycleLimitEveryOffset(t *testing.T) {
	words := countedLoop(t, 50)
	const total = 300 // past loop exit, into the spin
	maxLimit := uint64(520)
	if testing.Short() {
		maxLimit = 130
	}
	for _, prof := range profModes {
		for limit := uint64(1); limit <= maxLimit; limit++ {
			r := newRigICache(t, prof, smallRigICache, nil, nil, words...)
			n1, err := r.a.StepN(1<<30, limit, noStopPC)
			if err != nil {
				t.Fatalf("limit %d: StepN: %v", limit, err)
			}
			n1b := 0
			for r.b.Cycles < limit {
				if err := r.step(); err != nil {
					t.Fatalf("limit %d: reference: %v", limit, err)
				}
				n1b++
			}
			if n1 != n1b {
				t.Fatalf("limit %d: steps to boundary: superblock %d vs single-step %d", limit, n1, n1b)
			}
			r.check(t, fmt.Sprintf("limit %d at boundary", limit))
			if rest := total - n1; rest > 0 {
				got, err := r.a.StepN(rest, ^uint64(0), noStopPC)
				if err != nil || got != rest {
					t.Fatalf("limit %d: resume StepN = %d, %v", limit, got, err)
				}
				r.stepRef(t, rest, fmt.Sprintf("limit %d resume", limit))
			}
			r.check(t, fmt.Sprintf("limit %d at end", limit))
		}
	}
}

// TestDiffSuperblockIRQEveryOffset raises an interrupt at every cycle
// offset of the program — asserted between batches, as the SoC's
// settle-at-boundary protocol guarantees — and requires delivery,
// vectoring and everything after to match the single-step machine
// exactly, including when the post-trap spin is fast-forwarded.
func TestDiffSuperblockIRQEveryOffset(t *testing.T) {
	words := countedLoop(t, 50)
	const lvl = 11
	vector := uint32(TrapInterruptBase+lvl) << 4
	spin := uint32(0)
	const total = 320
	maxOffset := uint64(520)
	if testing.Short() {
		maxOffset = 130
	}
	for _, prof := range profModes {
		for off := uint64(1); off <= maxOffset; off++ {
			airq, birq := &fakeIRQ{}, &fakeIRQ{}
			r := newRigICache(t, prof, smallRigICache, airq, birq, words...)
			if spin == 0 {
				spin = enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
			}
			// Park a spin at the interrupt vector so execution continues
			// (ET is 0 inside the handler; a trap there would freeze).
			r.poke(vector, spin)

			n1, err := r.a.StepN(1<<30, off, noStopPC)
			if err != nil {
				t.Fatalf("offset %d: StepN: %v", off, err)
			}
			airq.level = lvl
			if rest := total - n1; rest > 0 {
				got, err := r.a.StepN(rest, ^uint64(0), noStopPC)
				if err != nil || got != rest {
					t.Fatalf("offset %d: resume StepN = %d, %v", off, got, err)
				}
			}

			n1b := 0
			for r.b.Cycles < off {
				if err := r.step(); err != nil {
					t.Fatalf("offset %d: reference: %v", off, err)
				}
				n1b++
			}
			if n1 != n1b {
				t.Fatalf("offset %d: steps to assert point: %d vs %d", off, n1, n1b)
			}
			birq.level = lvl
			r.stepRef(t, total-n1b, fmt.Sprintf("offset %d", off))

			r.check(t, fmt.Sprintf("IRQ at cycle offset %d", off))
			if airq.acked != birq.acked {
				t.Fatalf("offset %d: ack divergence: %d vs %d", off, airq.acked, birq.acked)
			}
		}
	}
}

// TestDiffSuperblockStopPC checks the stop-address gate (the ROM poll
// handoff uses it) against a reference that tests PC between steps.
func TestDiffSuperblockStopPC(t *testing.T) {
	words := countedLoop(t, 20)
	const progBase = 0x1000
	stop := uint32(progBase + 5*4) // the SUBcc inside the loop body
	for _, prof := range profModes {
		r := newRig(t, prof, nil, nil, words...)
		n, err := r.a.StepN(1<<30, ^uint64(0), stop)
		if err != nil {
			t.Fatalf("StepN: %v", err)
		}
		if r.a.PC() != stop {
			t.Fatalf("stopped at %#x, want %#x", r.a.PC(), stop)
		}
		nb := 0
		for r.b.PC() != stop {
			if err := r.step(); err != nil {
				t.Fatalf("reference: %v", err)
			}
			nb++
		}
		if n != nb {
			t.Fatalf("steps to stop PC: superblock %d vs single-step %d", n, nb)
		}
		r.check(t, "at stop PC")
	}
}

// TestDiffSuperblockUncreditedSteps runs a block that annuls a delay
// slot, then branches 32 KB ahead onto PCs whose profile slots the
// first block already holds (so they are counted in the spill map),
// where an illegal word fails to decode mid-block. The annulled slot
// and the decode-failure step retire no instruction, so neither may be
// credited. Every batch size splits the run at a different boundary.
func TestDiffSuperblockUncreditedSteps(t *testing.T) {
	const (
		progBase = 0x1000
		far      = progBase + 0x8000 // same predecode index as progBase
		slot     = progBase + 3*4
		illegal  = far + 2*4
	)
	words := []uint32{
		enc(t, movImm(isa.O0, 1)),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Annul: true, Imm: 2}), // untaken: annuls the slot
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 100}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Imm: (far - (progBase + 4*4)) / 4}),
		enc(t, movImm(isa.G0, 0)), // delay-slot nop
	}
	farWords := []uint32{
		enc(t, movImm(isa.O0+1, 2)),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0 + 1, Rs1: isa.O0 + 1, UseImm: true, Imm: 1}),
		0x00400000, // format-2 op2=1: does not decode
	}
	spin := enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
	const total = 40
	for _, prof := range profModes {
		for batch := 1; batch <= 8; batch++ {
			r := newRig(t, prof, nil, nil, words...)
			for i, w := range farWords {
				r.poke(far+uint32(i)*4, w)
			}
			r.poke(TrapIllegalInst<<4, spin) // TBR is 0
			for done := 0; done < total; {
				n := min(batch, total-done)
				got, err := r.a.StepN(n, ^uint64(0), noStopPC)
				if err != nil || got != n {
					t.Fatalf("batch %d: StepN(%d) = %d, %v", batch, n, got, err)
				}
				r.stepRef(t, n, fmt.Sprintf("batch %d", batch))
				done += n
				r.check(t, fmt.Sprintf("batch %d after %d steps", batch, done))
			}
			if r.want[slot] != 0 || r.want[illegal] != 0 || r.want[progBase] != 1 || r.want[far] != 1 {
				t.Fatalf("oracle %v: the run did not annul the slot, fail the decode and reach both colliding PCs", r.want)
			}
		}
	}
}

// branchEnteredLoop is a 30-iteration store-and-count loop whose body
// [loopHead, loopHead+24) is entered by a branch and spans two cache
// lines: with cold lines, the head's first block ends at the second
// line's miss, and every later one runs whole.
const loopHead = 0x1000 + 4*4

func branchEnteredLoop(t testing.TB) []uint32 {
	t.Helper()
	nop := enc(t, movImm(isa.G0, 0))
	return []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, movImm(isa.G0+2, 30)),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Imm: 2}), // to loopHead
		enc(t, movImm(isa.O0, 0)),
		// loopHead:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 3}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G1, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		nop, // the first line's last word
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Imm: -4}),
		nop,
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}), // spin
	}
}

// profSlot is a's profile slot for pc.
func (r *sbRig) profSlot(pc uint32) *profileSlot {
	return &r.a.profile.slots[(pc>>2)&predecodeMask]
}

// TestDiffProfileBlockCutShortThenWhole: a head whose first block is
// cut short — by an instruction-line miss, a step bound or a cycle cap
// — counts by block once it runs whole: its slot settles the short
// block and takes the whole one over. A slot that kept the first
// block's length would send every later block down the per-PC path.
// Counts match the oracle either way.
func TestDiffProfileBlockCutShortThenWhole(t *testing.T) {
	const whole = 6 // loopHead's block: four body words, bne, delay slot
	for _, tc := range []struct {
		name  string
		cold  bool
		steps int // the first batch's step bound
		insts int // its cycle cap lands after this many reference steps (0: none)
	}{
		{"line miss", true, 1 << 20, 0},
		{"step bound", false, 6, 0},
		{"cycle cap", false, 1 << 20, 6},
	} {
		r := newRig(t, true, nil, nil, branchEnteredLoop(t)...)
		if tc.cold {
			r.coldLines(t)
		}
		limit := ^uint64(0)
		if tc.insts > 0 {
			r.stepRef(t, tc.insts, tc.name)
			limit = r.b.Cycles
		}
		n, err := r.a.StepN(tc.steps, limit, noStopPC)
		if err != nil {
			t.Fatalf("%s: StepN: %v", tc.name, err)
		}
		if tc.insts == 0 {
			r.stepRef(t, n, tc.name)
		}
		if rest := 250 - n; rest > 0 { // past the loop's exit into the spin
			if got, err := r.a.StepN(rest, ^uint64(0), noStopPC); err != nil || got != rest {
				t.Fatalf("%s: StepN(%d) = %d, %v", tc.name, rest, got, err)
			}
			r.stepRef(t, rest, tc.name)
		}
		if s := r.profSlot(loopHead); s.head != loopHead+1 || s.k != whole || s.runs < 20 {
			t.Errorf("%s: loop head's slot holds head %#x k %d runs %d, want the whole %d-instruction block",
				tc.name, s.head-1, s.k, s.runs, whole)
		}
		r.check(t, tc.name)
	}
}

// TestDiffProfileAliasingHeads alternates blocks from two heads 32 KB
// apart, which share a profile slot (and, for their own PCs, a per-PC
// counter, so one of them spills): every block settles the other
// head's count. Every batch size splits the run at other boundaries.
func TestDiffProfileAliasingHeads(t *testing.T) {
	const (
		progBase = 0x1000
		headA    = progBase + 4
		headB    = headA + 0x8000 // same predecode index as headA
		iters    = 40
	)
	nop := enc(t, movImm(isa.G0, 0))
	words := []uint32{
		enc(t, movImm(isa.G0+2, iters)),
		// headA:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondE, Imm: 4}), // to the spin
		nop,
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Imm: (headB - (progBase + 5*4)) / 4}),
		nop,
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}), // spin
	}
	farWords := []uint32{
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0 + 1, Rs1: isa.O0 + 1, UseImm: true, Imm: 2}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Imm: -(headB + 4 - headA) / 4}),
		nop,
	}
	const total = 400
	for _, batch := range []int{1, 7, 64, total} {
		r := newRig(t, true, nil, nil, words...)
		for i, w := range farWords {
			r.poke(headB+uint32(i)*4, w)
		}
		for done := 0; done < total; {
			n := min(batch, total-done)
			if got, err := r.a.StepN(n, ^uint64(0), noStopPC); err != nil || got != n {
				t.Fatalf("batch %d: StepN(%d) = %d, %v", batch, n, got, err)
			}
			r.stepRef(t, n, fmt.Sprintf("batch %d", batch))
			done += n
			r.check(t, fmt.Sprintf("batch %d after %d steps", batch, done))
		}
		if r.want[headA] != iters || r.want[headB] != iters-1 {
			t.Fatalf("batch %d: oracle ran headA %d and headB %d times, want %d and %d",
				batch, r.want[headA], r.want[headB], iters, iters-1)
		}
	}
}

// TestProfileStartClearsClaimedSlots: after a run whose profile claimed
// slots both by Step (cold-line fills, a delay slot after a stepped
// branch) and by blocks, StartProfile leaves every slot reading zero by
// clearing only the claimed ones — a mark planted in an unclaimed slot
// survives it — and the restarted profile matches the oracle again.
// Restarting mid-run is what trace.Recorder.Reset does.
func TestProfileStartClearsClaimedSlots(t *testing.T) {
	r := newRig(t, true, nil, nil, branchEnteredLoop(t)...)
	r.coldLines(t)
	const first = 40
	if got, err := r.a.StepN(first, ^uint64(0), noStopPC); err != nil || got != first {
		t.Fatalf("StepN = %d, %v", got, err)
	}
	r.stepRef(t, first, "first batch")
	var byStep, byBlock int
	for _, s := range r.a.profile.slots {
		if s.tag != 0 {
			byStep++
		}
		if s.head != 0 {
			byBlock++
		}
	}
	if byStep == 0 || byBlock == 0 {
		t.Fatalf("run claimed %d slots by Step and %d by blocks; want both", byStep, byBlock)
	}
	const unclaimed = 0x4000
	mark := r.profSlot(unclaimed)
	if *mark != (profileSlot{}) {
		t.Fatalf("slot of %#x is claimed", unclaimed)
	}
	*mark = profileSlot{tag: unclaimed + 1, count: 1}

	r.restart()
	if m := *mark; m != (profileSlot{tag: unclaimed + 1, count: 1}) {
		t.Errorf("StartProfile cleared an unclaimed slot: %+v", m)
	}
	*mark = profileSlot{}
	for i, s := range r.a.profile.slots {
		if s != (profileSlot{}) {
			t.Fatalf("slot %d reads %+v after StartProfile", i, s)
		}
	}
	if n := len(r.a.profile.claimed); n != 0 {
		t.Fatalf("%d slots still claimed after StartProfile", n)
	}
	for done := first; done < 200; done += 23 {
		if got, err := r.a.StepN(23, ^uint64(0), noStopPC); err != nil || got != 23 {
			t.Fatalf("StepN = %d, %v", got, err)
		}
		r.stepRef(t, 23, "after restart")
		r.check(t, fmt.Sprintf("%d steps after restart", done+23-first))
	}
}

// TestStepNProfiledAllocatesNothing: once a loop's PCs are in the
// table, profiled dispatch allocates nothing.
func TestStepNProfiledAllocatesNothing(t *testing.T) {
	r := newRig(t, true, nil, nil, countedLoop(t, 4000)...)
	step := func() {
		if _, err := r.a.StepN(4096, ^uint64(0), noStopPC); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("profiled StepN allocates %.1f times per 4096 steps", allocs)
	}
}

// FuzzSuperblockDiff drives arbitrary instruction words through the
// StepN-against-Step rig: random batch sizes, a stop address and a
// cycle cap; a batch seed of 128 or more also starts the predecode
// generation just below its wrap, and one with bit 6 set runs a 1 KB
// instruction cache, so lines conflict and refill within the program.
// Before each reference step every gate must still be open,
// and a batch cut short must end at a closed gate (or an error); state,
// memory, fetch counters and, when profiled, the execution profile
// must match the single-stepped reference after every batch.
func FuzzSuperblockDiff(f *testing.F) {
	const progBase = 0x1000
	words := func(ws []uint32) []byte {
		b := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.BigEndian.PutUint32(b[i*4:], w)
		}
		return b
	}
	spin := enc(f, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
	for seed := int64(1); seed <= 2; seed++ { // TestDiffSuperblockRandomStreams' streams
		rng := rand.New(rand.NewSource(seed))
		f.Add(words(append(randProgram(f, rng, 160), spin)), uint8(seed), uint32(noStopPC), uint32(1<<31), seed == 2)
	}
	loop := words(countedLoop(f, 20))
	f.Add(loop, uint8(3), uint32(progBase-4), uint32(1<<31), false)  // stopPC below every block head
	f.Add(loop, uint8(4), uint32(progBase+7*4), uint32(1<<31), true) // stopPC on the loop branch's delay slot
	f.Add(loop, uint8(5), uint32(noStopPC), uint32(97), false)       // a cycle cap mid-loop
	f.Add(words([]uint32{                                            // an untaken bne,a annuls the slot that ends its block
		enc(f, movImm(isa.O0, 1)),
		enc(f, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(f, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Annul: true, Imm: 2}),
		enc(f, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 100}),
		spin,
	}), uint8(6), uint32(progBase+3*4), uint32(1<<31), false)
	// Profiled, the first batch (10 steps) ends two words into the loop
	// head's first block; later batches run it whole.
	f.Add(loop, uint8(12), uint32(noStopPC), uint32(1<<31), true)
	// The same for a loop body entered by a branch (first batch 9 steps).
	f.Add(words(branchEnteredLoop(f)), uint8(5), uint32(noStopPC), uint32(1<<31), true)
	// Register runs (regrun_test.go): cut short by the step budget, by
	// a stop PC inside a run and by a cycle cap inside one.
	runs := words(runLoop(f))
	f.Add(runs, uint8(13), uint32(noStopPC), uint32(1<<31), true)
	f.Add(runs, uint8(14), uint32(runLine+12), uint32(1<<31), false)
	f.Add(runs, uint8(15), uint32(noStopPC), uint32(8+16+5), true)
	// A store into a cached run, then FLUSH.
	f.Add(words(selfModRunLoop(f, aluI(isa.OpST, isa.O0, isa.G1, 0), true)), uint8(16), uint32(noStopPC), uint32(1<<31), true)
	f.Add(words(selfModRunLoop(f, aluI(isa.OpADD, isa.O0, isa.O0, 100), true)), uint8(17), uint32(noStopPC), uint32(1<<31), false)
	// Two run heads 32 KB apart evicting each other's entries.
	aliased, _, _ := aliasedRuns(f)
	f.Add(words(aliased), uint8(18), uint32(noStopPC), uint32(1<<31), true)
	// One run head under three CWPs.
	f.Add(words(windowedRuns(f)), uint8(19), uint32(noStopPC), uint32(1<<31), false)
	// FLUSHes carrying the predecode generation across its wrap (a
	// batch seed of 128 or more starts it 1-4 below 2^32).
	f.Add(words(wrapRuns(f)), uint8(128), uint32(noStopPC), uint32(1<<31), true)
	f.Add(words(wrapRuns(f)), uint8(129), uint32(noStopPC), uint32(1<<31), false)
	// Chained dispatch (chain_test.go): across CWP changes into a window
	// trap, through an annulled slot and a DCTI couple, and a store over
	// a resident line that a 1 KB cache evicts and refills.
	f.Add(words(chainWindowsLoop(f)), uint8(20), uint32(noStopPC), uint32(1<<31), true)
	f.Add(words(chainCoupleLoop(f)), uint8(21), uint32(noStopPC), uint32(1<<31), false)
	f.Add(words(chainCoupleLoop(f)), uint8(22), uint32(0x1028), uint32(1<<31), true)
	f.Add(words(staleLineLoop(f)), uint8(64+23), uint32(noStopPC), uint32(1<<31), true)
	f.Add(words(staleLineLoop(f)), uint8(64+24), uint32(noStopPC), uint32(1<<31), false)

	f.Fuzz(func(t *testing.T, code []byte, batch uint8, stopPC uint32, cycleCap uint32, prof bool) {
		if len(code) > 4*512 {
			code = code[:4*512]
		}
		ws := make([]uint32, len(code)/4)
		for i := range ws {
			ws[i] = binary.BigEndian.Uint32(code[i*4:])
		}
		icache := rigICacheBytes
		if batch&64 != 0 {
			icache = 1 << 10
		}
		r := newRigICache(t, prof, icache, nil, nil, ws...)
		if batch >= 128 {
			r.a.genKey = uint64(-uint32(batch&3+1)) << 32
		}
		rng := rand.New(rand.NewSource(int64(batch)))
		limit := uint64(cycleCap)
		for b := 0; b < 64; b++ {
			n := 1 + rng.Intn(31)
			got, errA := r.a.StepN(n, limit, stopPC)
			// An error-mode stop may or may not count its own step.
			var errB error
			for i := 0; errB == nil && (i < got || errA != nil && i == got); i++ {
				if r.b.Cycles >= limit || r.b.PC() == stopPC {
					t.Fatalf("batch %d: StepN(%d) ran step %d of %d past a closed gate (pc %#x, cycles %d)",
						b, n, i, got, r.b.PC(), r.b.Cycles)
				}
				errB = r.step()
				if errB != nil && errA == nil {
					t.Fatalf("batch %d: reference step %d: %v; StepN reported none", b, i, errB)
				}
			}
			if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("batch %d: error divergence: StepN %v, reference %v", b, errA, errB)
			}
			r.check(t, fmt.Sprintf("batch %d", b))
			if !bytes.Equal(r.am.data, r.bm.data) {
				t.Fatalf("batch %d: memory images diverged", b)
			}
			if errA != nil {
				return
			}
			if got < n {
				if r.b.Cycles < limit && r.b.PC() != stopPC {
					t.Fatalf("batch %d: StepN(%d) stopped after %d steps with every gate open", b, n, got)
				}
				return
			}
		}
	})
}
