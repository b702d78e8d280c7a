package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"liquidarch/internal/isa"
)

// TestPredecodeStoreInvalidation overwrites an already-executed (and
// therefore predecoded) instruction word through the CPU's own store
// path and re-executes it: the predecode cache must serve the new
// instruction, not the stale decode.
func TestPredecodeStoreInvalidation(t *testing.T) {
	const progBase = 0x1000
	g1, g2, g3 := isa.G0+1, isa.G0+2, isa.G0+3
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(g1, 1)), // T: will be overwritten
		enc(t, isa.Inst{Op: isa.OpST, Rd: g2, Rs1: g3, UseImm: true, Imm: 0}), // st %g2, [%g3]
	)
	run(t, c, 1) // executes T, populating its predecode entry
	if got := c.Reg(g1); got != 1 {
		t.Fatalf("first pass: %%g1 = %d, want 1", got)
	}
	c.SetReg(g2, enc(t, movImm(g1, 99)))
	c.SetReg(g3, progBase)
	run(t, c, 1) // the store overwrites T
	c.SetPC(progBase)
	run(t, c, 1) // re-execute T: must decode the stored word
	if got := c.Reg(g1); got != 99 {
		t.Fatalf("after self-modifying store: %%g1 = %d, want 99 (stale predecode entry reused)", got)
	}
}

// TestPredecodeExternalWrite overwrites a predecoded instruction by
// writing to memory directly — the path a controller-port poke takes,
// which never passes through the CPU's per-store invalidation. The
// predecode entry's word compare must still reject the stale decode,
// because reuse is only allowed against the exact word the fetch path
// served.
func TestPredecodeExternalWrite(t *testing.T) {
	const progBase = 0x1000
	g1 := isa.G0 + 1
	c, m := newCPU(t, DefaultConfig(), enc(t, movImm(g1, 1)))
	run(t, c, 1)
	if got := c.Reg(g1); got != 1 {
		t.Fatalf("first pass: %%g1 = %d, want 1", got)
	}
	binary.BigEndian.PutUint32(m.data[progBase:], enc(t, movImm(g1, 55)))
	c.SetPC(progBase)
	run(t, c, 1)
	if got := c.Reg(g1); got != 55 {
		t.Fatalf("after external write: %%g1 = %d, want 55 (predecode word compare failed)", got)
	}
}

// TestInvalidatePredecode checks the wholesale flush: after
// InvalidatePredecode every entry is dropped and re-decoded on the
// next fetch (execution results are unchanged, this is purely a
// does-not-crash-and-still-correct property).
func TestInvalidatePredecode(t *testing.T) {
	g1 := isa.G0 + 1
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(g1, 5)),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: g1, Rs1: g1, UseImm: true, Imm: 2}),
	)
	run(t, c, 2)
	c.InvalidatePredecode()
	c.SetPC(0x1000)
	run(t, c, 2)
	if got := c.Reg(g1); got != 7 {
		t.Fatalf("%%g1 = %d, want 7", got)
	}
}

// TestInvalidatePredecodeWritesNoEntry: a flush starts a new
// generation without writing the table — every entry reads as before,
// byte for byte — yet every entry decoded before it is dead, and the
// next fetch decodes its entry live again. Only the counter's wrap
// writes the table, clearing it.
func TestInvalidatePredecodeWritesNoEntry(t *testing.T) {
	g1 := isa.G0 + 1
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(g1, 5)),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: g1, Rs1: g1, UseImm: true, Imm: 2}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: g1, Rs1: isa.G0, UseImm: true, Imm: 0x800}),
	)
	run(t, c, 3)
	live := func(e *predecodeEntry) bool { return uint32(e.key) != 0 && e.key == c.genKey|e.key&0xFFFFFFFF }
	var decoded int
	for i := range c.predecode {
		if live(&c.predecode[i]) {
			decoded++
		}
	}
	if decoded != 3 {
		t.Fatalf("%d live entries after three instructions, want 3", decoded)
	}
	before := slices.Clone(c.predecode)
	c.InvalidatePredecode()
	if !slices.Equal(before, c.predecode) {
		t.Fatal("InvalidatePredecode wrote the table")
	}
	for i := range c.predecode {
		if live(&c.predecode[i]) {
			t.Fatalf("entry %d (pc %#x) still live after InvalidatePredecode", i, uint32(c.predecode[i].key)-1)
		}
	}
	c.SetPC(0x1000)
	run(t, c, 1)
	if e := &c.predecode[(0x1000>>2)&predecodeMask]; !live(e) || e.key != c.genKey|0x1001 {
		t.Fatalf("re-decoded entry %+v is not live in generation %#x", *e, c.genKey>>32)
	}

	c.genKey = uint64(^uint32(0)) << 32
	c.InvalidatePredecode()
	if c.genKey != 1<<32 {
		t.Fatalf("generation %#x after the wrap, want 1", c.genKey>>32)
	}
	for i := range c.predecode {
		if c.predecode[i] != (predecodeEntry{}) {
			t.Fatalf("entry %d survived the wrap: %+v", i, c.predecode[i])
		}
	}
}

// TestRetireRunsWrap: when the run epoch wraps, every cached run is
// marked unmeasured before the epoch restarts at 1, so no run measured
// 2^32 epochs ago is trusted again.
func TestRetireRunsWrap(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig())
	c.runGen = ^uint32(0)
	e := &c.predecode[5]
	e.run, e.runGen = 3, c.runGen
	c.retireRuns()
	if c.runGen != 1 || e.runGen != 0 {
		t.Fatalf("after the wrap: epoch %d, the entry's %d; want 1 and 0", c.runGen, e.runGen)
	}
}

// TestNewFromTakesTables: a CPU built to replace another, as a full
// reconfiguration builds one, takes over its predecode and profile
// tables rather than allocating its own, leaves the old CPU without
// them, finds none of the old entries live, and steps exactly as a CPU
// built fresh, profiled or not.
func TestNewFromTakesTables(t *testing.T) {
	words := countedLoop(t, 30)
	for _, prof := range profModes {
		old := newRig(t, true, nil, nil, words...)
		if _, err := old.a.StepN(200, ^uint64(0), noStopPC); err != nil {
			t.Fatal(err)
		}
		table, slots := &old.a.predecode[0], &old.a.profile.slots[0]

		r := newRig(t, prof, nil, nil, words...)
		c, err := NewFrom(old.a, DefaultConfig(), r.am, r.am, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetICache(r.a.icache)
		c.FlushFn = r.a.FlushFn
		c.psr |= PSRET
		c.SetPC(0x1000)
		if &c.predecode[0] != table || &c.profile.slots[0] != slots {
			t.Fatal("the new CPU allocated its own tables")
		}
		if old.a.predecode != nil || old.a.profile.slots != nil || old.a.prof != nil {
			t.Fatal("the old CPU kept its tables")
		}
		for i, e := range c.predecode {
			if e.key != 0 && e.key>>32 == c.genKey>>32 {
				t.Fatalf("entry %d (pc %#x) is live after the hand-over", i, uint32(e.key)-1)
			}
		}
		r.a = c
		if prof {
			r.aInsts = 0
			c.StartProfile()
		}
		r.drive(t, 300, 17, fmt.Sprintf("profiled %v, after the hand-over", prof))
	}
}
