package leon

import (
	"errors"
	"fmt"

	"liquidarch/internal/cpu"
)

// State is the leon_ctrl state machine's externally visible state
// (§3.1: the external circuitry sequences load → execute → return).
type State uint8

// Controller states.
const (
	StateReset   State = iota // before Boot
	StateIdle                 // CPU parked in the poll loop, memory disconnected
	StateRunning              // user program executing
	StateDone                 // last program returned normally
	StateFault                // last program hit an unexpected trap
)

func (s State) String() string {
	switch s {
	case StateReset:
		return "reset"
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFault:
		return "fault"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrBudget reports that a run exceeded its cycle budget.
var ErrBudget = errors.New("leon: cycle budget exhausted")

// RunResult is what the hardware cycle counter and fault mailbox report
// after a program run.
type RunResult struct {
	// Cycles is the clock-cycle count from program entry to its
	// return to the poll loop — the number the paper's Figure 8
	// reports.
	Cycles uint64
	// Instructions executed by the program.
	Instructions uint64
	// Faulted is set when the program ended via bad_trap.
	Faulted bool
	// TT and FaultPC identify the fault when Faulted.
	TT      uint8
	FaultPC uint32
}

// Controller is the leon_ctrl entity plus the external disconnect
// circuitry of Fig. 6: it monitors the LEON's address bus (here: its
// PC), connects and disconnects main memory, loads programs through
// the user port, and counts execution cycles.
type Controller struct {
	soc   *SoC
	state State
	last  RunResult

	// In-flight run bookkeeping, armed by Start and consumed by
	// StepRun/CollectResult. Valid only while state == StateRunning.
	runLimit       uint64 // absolute CPU.Cycles budget for the run
	runStartCycles uint64 // CPU.Cycles at program entry
	runStartInsts  uint64 // instruction count at program entry
}

// NewController wraps a freshly built SoC.
func NewController(soc *SoC) *Controller {
	return &Controller{soc: soc}
}

// SoC returns the underlying processor system.
func (c *Controller) SoC() *SoC { return c.soc }

// State returns the current controller state.
func (c *Controller) State() State { return c.state }

// LastResult returns the result of the most recent run.
func (c *Controller) LastResult() RunResult { return c.last }

// Boot lets the CPU run the boot ROM until it parks in the poll loop
// with main memory disconnected. Call once after New.
func (c *Controller) Boot() error {
	if c.state != StateReset {
		return fmt.Errorf("leon: Boot in state %v", c.state)
	}
	c.soc.sramSwitch.connected = false
	c.soc.CPU.Reset()
	const budget = 1 << 16
	for i := 0; i < budget; i++ {
		if c.soc.CPU.PC() == ROMPollAddr {
			c.state = StateIdle
			return nil
		}
		if err := c.soc.Step(); err != nil {
			return fmt.Errorf("leon: boot failed: %w", err)
		}
	}
	return fmt.Errorf("leon: boot did not reach the poll loop: %w", ErrBudget)
}

// LoadProgram writes a program image into SRAM through the user-side
// port while the CPU is disconnected (the paper's load path: "programs
// are sent to the FPX via UDP packets, then written directly to main
// memory").
func (c *Controller) LoadProgram(addr uint32, image []byte) error {
	if c.state == StateRunning || c.state == StateReset {
		return fmt.Errorf("leon: cannot load in state %v", c.state)
	}
	if addr < MailboxEnd {
		return fmt.Errorf("leon: load address %#x overlaps the mailbox page", addr)
	}
	if addr < SRAMBase || uint64(addr)+uint64(len(image)) > uint64(SRAMBase)+uint64(c.soc.Config.SRAMSize) {
		return fmt.Errorf("leon: load [%#x,+%d) outside SRAM", addr, len(image))
	}
	// A fresh image may reuse addresses from the previous run; drop any
	// instructions predecoded from the old contents. (The boot ROM's
	// FLUSH before handoff also does this — see BootROMSource — but the
	// load path must not rely on the program running to completion.)
	c.soc.CPU.InvalidatePredecode()
	return c.soc.SRAM.Poke(addr-SRAMBase, image)
}

// Start begins executing the program at entry without driving it to
// completion: it clears the fault mailbox, publishes the start address
// in the poll word, reconnects main memory and steps the CPU until the
// boot ROM's poll loop picks the address up and jumps into the program.
// On return the controller is in StateRunning with the CPU parked on
// the program's first instruction; the caller either drives the run to
// completion with StepRun/CollectResult (the paper's §3.1 start → poll
// → collect flow) or steps the SoC directly (the steady-state path the
// throughput benchmarks measure). maxCycles bounds the whole run,
// handoff included (0 means a large default).
func (c *Controller) Start(entry uint32, maxCycles uint64) error {
	if c.state != StateIdle && c.state != StateDone && c.state != StateFault {
		return fmt.Errorf("leon: cannot execute in state %v", c.state)
	}
	if entry < MailboxEnd || entry >= SRAMBase+uint32(c.soc.Config.SRAMSize) {
		return fmt.Errorf("leon: entry %#x outside user SRAM", entry)
	}
	if maxCycles == 0 {
		maxCycles = 1 << 32
	}
	// Clear the fault mailbox, publish the start address, reconnect.
	sram := c.soc.SRAM
	for _, off := range []uint32{MailboxFaultTT, MailboxFaultPC} {
		if err := sram.Poke32(off-SRAMBase, 0); err != nil {
			return err
		}
	}
	if err := sram.Poke32(MailboxProgAddr-SRAMBase, entry); err != nil {
		return err
	}
	c.soc.sramSwitch.connected = true
	c.state = StateRunning

	// The budget saturates: a maxCycles that would carry the limit past
	// 2^64-1 means no limit, rather than a limit that wrapped below the
	// cycle counter.
	limit := satAdd(c.soc.CPU.Cycles, maxCycles)
	// Wait for the poll loop to pick up the address and jump into the
	// program. The wait runs in event-horizon batches with entry as the
	// stop address (cycleCap limit+1 ⇔ the historical Cycles > limit
	// pre-step check), so a machine that never picks it up — parked in
	// any side-effect-free spin — fast-forwards to the budget instead
	// of being emulated one instruction at a time.
	for c.soc.CPU.PC() != entry {
		if c.soc.CPU.Cycles > limit {
			c.state = StateIdle
			c.soc.sramSwitch.connected = false
			return fmt.Errorf("leon: program never entered: %w", ErrBudget)
		}
		if _, err := c.soc.StepN(1<<20, satAdd(limit, 1), entry); err != nil {
			_, err = c.errorMode(err)
			return err
		}
	}
	// Arm the resumable-run bookkeeping: the reported cycle count starts
	// at program entry (handoff cycles excluded), while the budget limit
	// was fixed before the handoff — both exactly as the historical
	// blocking Execute measured them.
	c.runLimit = limit
	c.runStartCycles = c.soc.CPU.Cycles
	c.runStartInsts = c.soc.CPU.Stats().Instructions
	return nil
}

// Cycles returns the hardware cycle counter as the paper's client
// observes it: cycles consumed so far by the in-flight run, or the
// final count of the last completed run.
func (c *Controller) Cycles() uint64 {
	if c.state == StateRunning {
		return c.soc.CPU.Cycles - c.runStartCycles
	}
	return c.last.Cycles
}

// finishRun disconnects main memory, zeroes the poll word and records
// the result — the external circuitry's reaction to the CPU returning
// to the poll routine.
func (c *Controller) finishRun(res RunResult) (RunResult, error) {
	c.soc.sramSwitch.connected = false
	// Zero the poll word so a reconnect without a new program does not
	// re-run the old one.
	if err := c.soc.SRAM.Poke32(MailboxProgAddr-SRAMBase, 0); err != nil {
		return res, err
	}
	c.last = res
	if res.Faulted {
		c.state = StateFault
	} else {
		c.state = StateDone
	}
	return res, nil
}

// StepRun advances an in-flight run (armed by Start) by at most
// maxSteps instructions. It returns done=false while the program is
// still executing; once the CPU returns to the poll routine, exhausts
// its cycle budget or freezes in error mode, it finalizes the run
// exactly as the blocking Execute would and returns done=true with the
// result. The slicing changes host scheduling only — the simulated
// instruction sequence, and therefore every cycle count, is identical
// to an unsliced run.
func (c *Controller) StepRun(maxSteps int) (done bool, res RunResult, err error) {
	if c.state != StateRunning {
		return true, c.last, fmt.Errorf("leon: StepRun in state %v", c.state)
	}
	sram := c.soc.SRAM
	// The run advances in event-horizon batches (SoC.StepN) instead of
	// one instruction at a time. StepN stops at exactly the boundaries
	// the per-step loop tested between instructions — PC on the poll
	// routine, the cycle counter past the budget (cycleCap runLimit+1
	// ⇔ the historical Cycles > runLimit pre-step check), a device
	// access moving the horizon — so the checks below fire at the same
	// instruction, in the same order, as they always did.
	for steps := 0; ; {
		if steps >= maxSteps {
			return false, RunResult{}, nil
		}
		if c.soc.CPU.PC() == ROMPollAddr {
			r := RunResult{
				Cycles:       c.soc.CPU.Cycles - c.runStartCycles,
				Instructions: c.soc.CPU.Stats().Instructions - c.runStartInsts,
			}
			// A bad_trap during the run lands back at the poll loop with
			// the fault mailbox filled in.
			if tt, merr := sram.Peek32(MailboxFaultTT - SRAMBase); merr == nil && tt != 0 {
				r.Faulted = true
				r.TT = uint8(tt)
				pc, _ := sram.Peek32(MailboxFaultPC - SRAMBase)
				r.FaultPC = pc
			}
			fr, ferr := c.finishRun(r)
			return true, fr, ferr
		}
		if c.soc.CPU.Cycles > c.runLimit {
			fr, _ := c.finishRun(RunResult{
				Cycles:       c.soc.CPU.Cycles - c.runStartCycles,
				Instructions: c.soc.CPU.Stats().Instructions - c.runStartInsts,
				Faulted:      true,
			})
			return true, fr, fmt.Errorf("leon: %w after %d cycles", ErrBudget, fr.Cycles)
		}
		n, serr := c.soc.StepN(maxSteps-steps, satAdd(c.runLimit, 1), ROMPollAddr)
		steps += n
		if serr != nil {
			fr, ferr := c.errorMode(serr)
			return true, fr, ferr
		}
	}
}

// satAdd returns a+b, or 2^64-1 where the sum would wrap. A cycle cap
// that wrapped to a small number would stop StepN before its first
// step, so a run whose budget reaches the top of the counter could
// never make progress.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// CollectResult drives an in-flight run to completion and returns its
// result; when no run is in flight it returns the last result. It is
// the blocking counterpart of the AsyncController's poll-based collect.
func (c *Controller) CollectResult() (RunResult, error) {
	for c.state == StateRunning {
		if done, res, err := c.StepRun(1 << 16); done {
			return res, err
		}
	}
	return c.last, nil
}

// Execute starts the program at entry and runs it to completion: it
// stores the start address in the poll word, reconnects main memory,
// lets the CPU jump in, and watches the address bus for the return to
// the poll routine, at which point it disconnects memory again and
// reports the cycle count. maxCycles bounds the run (0 means a large
// default).
func (c *Controller) Execute(entry uint32, maxCycles uint64) (RunResult, error) {
	if err := c.Start(entry, maxCycles); err != nil {
		if c.state == StateFault || c.state == StateReset {
			// The CPU hit error mode during the handoff; errorMode
			// recorded the fault in last.
			return c.last, err
		}
		return RunResult{}, err
	}
	return c.CollectResult()
}

// errorMode handles a CPU error-mode freeze: record it as a fault and
// re-boot the processor (the FPX would reload the bitfile).
func (c *Controller) errorMode(err error) (RunResult, error) {
	res := RunResult{Faulted: true}
	var em *cpu.ErrorMode
	if errors.As(err, &em) {
		res.TT = em.TT
		res.FaultPC = em.PC
	}
	c.last = res
	c.state = StateReset
	if berr := c.Boot(); berr != nil {
		return res, fmt.Errorf("leon: error mode (%v) and reboot failed: %w", err, berr)
	}
	c.state = StateFault
	return res, err
}

// ReadMemory reads n bytes at addr through the user-side ports: SRAM
// via the leon_ctrl port, SDRAM via the controller's network module
// port (the FPX SDRAM controller arbitrates both, §2.4).
func (c *Controller) ReadMemory(addr uint32, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("leon: negative read length %d", n)
	}
	out := make([]byte, n)
	switch {
	case addr >= SRAMBase && uint64(addr)+uint64(n) <= uint64(SRAMBase)+uint64(c.soc.Config.SRAMSize):
		if err := c.soc.SRAM.Peek(addr-SRAMBase, out); err != nil {
			return nil, err
		}
		return out, nil
	case addr >= SDRAMBase && uint64(addr)+uint64(n) <= uint64(SDRAMBase)+uint64(c.soc.Config.SDRAMSize):
		return c.readSDRAM(addr-SDRAMBase, n)
	default:
		return nil, fmt.Errorf("leon: read [%#x,+%d) outside user memory", addr, n)
	}
}

// WriteMemory writes bytes at addr through the user-side SRAM port.
func (c *Controller) WriteMemory(addr uint32, p []byte) error {
	if c.state == StateRunning {
		return fmt.Errorf("leon: cannot write memory while running")
	}
	if addr < SRAMBase || uint64(addr)+uint64(len(p)) > uint64(SRAMBase)+uint64(c.soc.Config.SRAMSize) {
		return fmt.Errorf("leon: write [%#x,+%d) outside SRAM", addr, len(p))
	}
	// Same staleness concern as LoadProgram: user-port pokes bypass the
	// CPU's store path, so its per-store invalidation never sees them.
	c.soc.CPU.InvalidatePredecode()
	return c.soc.SRAM.Poke(addr-SRAMBase, p)
}

// readSDRAM reads via the network-side controller port in 64-bit
// bursts.
func (c *Controller) readSDRAM(off uint32, n int) ([]byte, error) {
	start := off &^ 7
	end := (off + uint32(n) + 7) &^ 7
	words := make([]uint64, (end-start)/8)
	const chunk = 64 // controller burst limit
	for i := 0; i < len(words); i += chunk {
		j := i + chunk
		if j > len(words) {
			j = len(words)
		}
		if _, err := c.soc.NetPort.ReadBurst(start+uint32(i)*8, words[i:j]); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, len(words)*8)
	for i, w := range words {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(w >> ((7 - b) * 8))
		}
	}
	return buf[off-start : off-start+uint32(n)], nil
}

// IRQCount returns the mailbox interrupt counter maintained by the ROM
// interrupt stub.
func (c *Controller) IRQCount() uint32 {
	v, _ := c.soc.SRAM.Peek32(MailboxIRQCount - SRAMBase)
	return v
}
