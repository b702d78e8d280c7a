package leon

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
)

// buildSystem boots a default-config system.
func buildSystem(t *testing.T, cfg Config, uart *bytes.Buffer) *Controller {
	t.Helper()
	var w *bytes.Buffer
	if uart != nil {
		w = uart
	}
	soc, err := New(cfg, nullable(w))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func nullable(b *bytes.Buffer) *bytes.Buffer {
	return b
}

// assembleProg assembles a test program at DefaultLoadAddr.
func assembleProg(t *testing.T, src string) *asm.Object {
	t.Helper()
	obj, err := asm.AssembleAt(src, DefaultLoadAddr)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return obj
}

// loadAndRun loads and executes the object, returning the result.
func loadAndRun(t *testing.T, ctrl *Controller, obj *asm.Object) RunResult {
	t.Helper()
	if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Execute(obj.Origin, 0)
	if err != nil {
		t.Fatalf("execute: %v (result %+v)", err, res)
	}
	return res
}

const epilogue = `
	set 0x1000, %g7		! ROMPollAddr: return to the poll loop
	jmp %g7
	nop
`

func TestBootParksInPollLoop(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	if ctrl.State() != StateIdle {
		t.Fatalf("state = %v", ctrl.State())
	}
	soc := ctrl.SoC()
	if soc.CPU.PC() != ROMPollAddr {
		t.Errorf("pc = %#x, want poll loop", soc.CPU.PC())
	}
	// Boot is idempotent-protected.
	if err := ctrl.Boot(); err == nil {
		t.Error("second Boot succeeded")
	}
	// Let it spin a while: it must stay inside the poll routine
	// because the disconnected SRAM reads zero.
	for i := 0; i < 100; i++ {
		if err := soc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if pc := soc.CPU.PC(); pc < ROMPollAddr || pc > ROMPollAddr+0x20 {
		t.Errorf("pc drifted to %#x while idle", pc)
	}
}

func TestStoreResultProgram(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	mov 40, %o0
	add %o0, 2, %o0
	set result, %g1
	st %o0, [%g1]
`+epilogue+`
result:	.word 0
`)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: %+v", res)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Errorf("empty result %+v", res)
	}
	addr, _ := obj.Symbol("result")
	out, err := ctrl.ReadMemory(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := be32(out); got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
	if ctrl.State() != StateDone {
		t.Errorf("state = %v", ctrl.State())
	}
	if ctrl.LastResult() != res {
		t.Error("LastResult mismatch")
	}
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func TestRunTwiceIsRepeatable(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	set 1000, %o0
loop:
	subcc %o0, 1, %o0
	bne loop
	nop
`+epilogue)
	r1 := loadAndRun(t, ctrl, obj)
	r2 := loadAndRun(t, ctrl, obj)
	if r1.Instructions != r2.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", r1.Instructions, r2.Instructions)
	}
	// Cycle counts may differ slightly (cache state), but not wildly.
	diff := int64(r1.Cycles) - int64(r2.Cycles)
	if diff < 0 {
		diff = -diff
	}
	if uint64(diff) > r1.Cycles/10 {
		t.Errorf("cycle counts diverge: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

// TestDeepRecursionSpillsWindows exercises the boot ROM's window
// overflow/underflow handlers: 20 nested calls on an 8-window machine
// must spill and refill correctly.
func TestDeepRecursionSpillsWindows(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	mov 20, %o0
	call depth
	nop
	set result, %g1
	st %o0, [%g1]
`+epilogue+`
! depth(n) = n==0 ? 0 : depth(n-1)+1, one register window per level
depth:
	save %sp, -96, %sp
	cmp %i0, 0
	be base
	nop
	sub %i0, 1, %o0
	call depth
	nop
	add %o0, 1, %i0
base:
	ret
	restore
result:	.word 0
`)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: tt=%#x pc=%#x", res.TT, res.FaultPC)
	}
	addr, _ := obj.Symbol("result")
	out, _ := ctrl.ReadMemory(addr, 4)
	if got := be32(out); got != 20 {
		t.Errorf("depth(20) = %d, want 20", got)
	}
	stats := ctrl.SoC().CPU.Stats()
	if stats.WindowSpills == 0 || stats.WindowFills == 0 {
		t.Errorf("no window traps occurred (spills=%d fills=%d); recursion too shallow?",
			stats.WindowSpills, stats.WindowFills)
	}
}

// TestLocalsSurviveSpill verifies spill/fill preserves register values:
// each recursion level holds a distinct local value that must be intact
// after the windows come back from the stack.
func TestLocalsSurviveSpill(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	// sum(n) = n + sum(n-1); each frame keeps n in %l5 across the call.
	obj2 := assembleProg(t, `
_start:
	mov 15, %o0
	call sum
	nop
	set result, %g1
	st %o0, [%g1]
`+epilogue+`
sum:
	save %sp, -96, %sp
	cmp %i0, 0
	be base
	mov 0, %l5
	mov %i0, %l5
	sub %i0, 1, %o0
	call sum
	nop
	add %o0, %l5, %i0
	ret
	restore
base:
	mov 0, %i0
	ret
	restore
result:	.word 0
`)
	res := loadAndRun(t, ctrl, obj2)
	if res.Faulted {
		t.Fatalf("faulted: tt=%#x pc=%#x", res.TT, res.FaultPC)
	}
	addr, _ := obj2.Symbol("result")
	out, _ := ctrl.ReadMemory(addr, 4)
	if got := be32(out); got != 120 {
		t.Errorf("sum(15) = %d, want 120", got)
	}
}

func TestFaultReportsThroughMailbox(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	nop
	unimp 0		! illegal instruction
	nop
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if !res.Faulted {
		t.Fatal("fault not reported")
	}
	if res.TT != 0x02 {
		t.Errorf("tt = %#x, want illegal_instruction", res.TT)
	}
	if res.FaultPC != obj.Origin+4 {
		t.Errorf("fault pc = %#x, want %#x", res.FaultPC, obj.Origin+4)
	}
	if ctrl.State() != StateFault {
		t.Errorf("state = %v", ctrl.State())
	}
	// The system recovers: a good program runs afterwards.
	good := assembleProg(t, "_start:\n\tnop\n"+epilogue)
	res2 := loadAndRun(t, ctrl, good)
	if res2.Faulted {
		t.Errorf("recovery run faulted: %+v", res2)
	}
}

func TestUARTOutput(t *testing.T) {
	var uart bytes.Buffer
	ctrl := buildSystem(t, DefaultConfig(), &uart)
	obj := assembleProg(t, `
_start:
	set 0x80000070, %g1	! UART data register
	mov 'o', %g2
	st %g2, [%g1]
	mov 'k', %g2
	st %g2, [%g1]
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: %+v", res)
	}
	if uart.String() != "ok" {
		t.Errorf("uart = %q", uart.String())
	}
}

func TestGPIOLEDs(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	set 0x800000A0, %g1	! GPIO output (FPX LEDs)
	mov 0xA5, %g2
	st %g2, [%g1]
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: %+v", res)
	}
	if got := ctrl.SoC().GPIO.Value(); got != 0xA5 {
		t.Errorf("LEDs = %#x", got)
	}
}

func TestTimerInterruptCounted(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	set 0x80000094, %g1	! IRQ mask
	set 0xFFFE, %g2
	st %g2, [%g1]
	set 0x80000044, %g1	! timer reload
	mov 200, %g2
	st %g2, [%g1]
	set 0x80000048, %g1	! timer control: enable|reload|load|irq
	mov 0xF, %g2
	st %g2, [%g1]
	set 3000, %g3
spin:
	subcc %g3, 1, %g3
	bne spin
	nop
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: tt=%#x pc=%#x", res.TT, res.FaultPC)
	}
	if got := ctrl.IRQCount(); got == 0 {
		t.Error("timer interrupts not delivered to the ROM stub")
	}
	if ctrl.SoC().CPU.Stats().Interrupts == 0 {
		t.Error("CPU took no interrupts")
	}
}

// TestCacheSizeAffectsCycles is the system-level miniature of Fig. 8:
// the same array-sweep program must run much slower with a 1 KB data
// cache than with a 16 KB one.
func TestCacheSizeAffectsCycles(t *testing.T) {
	src := `
_start:
	set 40000, %o0		! iterations
	set buffer, %g1
	mov 0, %g3
loop:
	and %g3, 0xFC0, %g2	! stride through a 4 KB window
	ld [%g1 + %g2], %g4
	add %g3, 64, %g3
	subcc %o0, 1, %o0
	bne loop
	nop
` + epilogue + `
	.align 8
buffer:	.space 4096
`
	cycles := map[int]uint64{}
	for _, size := range []int{1 << 10, 16 << 10} {
		cfg := DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1}
		ctrl := buildSystem(t, cfg, nil)
		obj := assembleProg(t, src)
		res := loadAndRun(t, ctrl, obj)
		if res.Faulted {
			t.Fatalf("size %d: faulted %+v", size, res)
		}
		cycles[size] = res.Cycles
	}
	if cycles[1<<10] < cycles[16<<10]*3/2 {
		t.Errorf("1KB D$ (%d cycles) not clearly slower than 16KB (%d)",
			cycles[1<<10], cycles[16<<10])
	}
}

func TestExecuteBudget(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, "_start:\n\tba _start\n\tnop\n") // infinite loop
	if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	_, err := ctrl.Execute(obj.Origin, 50000)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want budget error", err)
	}
	if ctrl.State() != StateFault {
		t.Errorf("state = %v after timeout", ctrl.State())
	}
}

func TestLoadValidation(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	if err := ctrl.LoadProgram(SRAMBase, []byte{1}); err == nil {
		t.Error("load over the mailbox accepted")
	}
	if err := ctrl.LoadProgram(0x1000, []byte{1}); err == nil {
		t.Error("load outside SRAM accepted")
	}
	huge := make([]byte, 16)
	if err := ctrl.LoadProgram(SRAMBase+uint32(ctrl.SoC().Config.SRAMSize)-8, huge); err == nil {
		t.Error("load past SRAM end accepted")
	}
	if _, err := ctrl.Execute(SRAMBase, 0); err == nil {
		t.Error("execute in mailbox accepted")
	}
}

func TestReadWriteMemorySDRAM(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	// Program stores into SDRAM through the adapter; leon_ctrl reads
	// it back through the network port.
	obj := assembleProg(t, `
_start:
	set 0x60000100, %g1
	set 0x12345678, %g2
	st %g2, [%g1]
	st %g2, [%g1 + 4]
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if res.Faulted {
		t.Fatalf("faulted: %+v", res)
	}
	out, err := ctrl.ReadMemory(0x60000100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if be32(out) != 0x12345678 || be32(out[4:]) != 0x12345678 {
		t.Errorf("sdram = % x", out)
	}
	// Unaligned window read also works.
	out, err = ctrl.ReadMemory(0x60000102, 4)
	if err != nil {
		t.Fatal(err)
	}
	if be32(out) != 0x56781234 {
		t.Errorf("unaligned sdram read = % x", out)
	}
	// Out-of-range read rejected.
	if _, err := ctrl.ReadMemory(0x90000000, 4); err == nil {
		t.Error("read outside memory accepted")
	}
}

func TestROMWriteFaults(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	set 0x100, %g1
	st %g0, [%g1]		! write to PROM: data access exception
`+epilogue)
	res := loadAndRun(t, ctrl, obj)
	if !res.Faulted || res.TT != 0x09 {
		t.Errorf("result = %+v, want data access fault", res)
	}
}

func TestBootROMSourceListsHandlers(t *testing.T) {
	src := BootROMSource(8, 0x40200000)
	for _, frag := range []string{"win_ovf", "win_unf", "bad_trap", "irq_stub", "CheckReady", "boot_start"} {
		if !strings.Contains(src, frag) {
			t.Errorf("boot ROM source missing %s", frag)
		}
	}
	rom, err := BuildBootROM(8, 0x40200000)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rom.Symbols["CheckReady"]; !ok || got != ROMPollAddr {
		t.Errorf("CheckReady = %#x, want %#x", got, ROMPollAddr)
	}
}

// TestBootROMSharedAcrossSoCs: SoCs with the same window count and
// stack top share one assembled ROM image, but each keeps its own
// symbol table.
func TestBootROMSharedAcrossSoCs(t *testing.T) {
	a, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Reload(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if &a.ROM.data[0] != &b.ROM.data[0] {
		t.Error("same key assembled the boot ROM twice")
	}
	fresh, err := BuildBootROM(a.Config.CPU.NWindows, SRAMBase+uint32(a.Config.SRAMSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ROM.data, fresh.data) || !maps.Equal(a.BootMap, fresh.Symbols) {
		t.Error("shared boot ROM differs from a fresh assembly")
	}
	a.BootMap["CheckReady"] = 0
	if b.BootMap["CheckReady"] != ROMPollAddr {
		t.Error("SoCs share one boot ROM symbol table")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.SRAMSize = 100
	if _, err := New(bad, nil); err == nil {
		t.Error("tiny SRAM accepted")
	}
	bad = DefaultConfig()
	bad.ICache.SizeBytes = 3000
	if _, err := New(bad, nil); err == nil {
		t.Error("bad icache accepted")
	}
	bad = DefaultConfig()
	bad.ClockMHz = 0
	if _, err := New(bad, nil); err == nil {
		t.Error("zero clock accepted")
	}
	bad = DefaultConfig()
	bad.BurstWords = 0
	if _, err := New(bad, nil); err == nil {
		t.Error("zero burst accepted")
	}
}

func TestSeconds(t *testing.T) {
	soc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := soc.Seconds(30e6); got != 1.0 {
		t.Errorf("Seconds(30e6) = %v at 30 MHz", got)
	}
}
