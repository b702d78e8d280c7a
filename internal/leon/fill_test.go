package leon

import (
	"fmt"
	"testing"

	"liquidarch/internal/ahbadapter"
	"liquidarch/internal/amba"
	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
	"liquidarch/internal/mem"
)

// Failed line fills. A cache fills a line in place: the burst lands in
// the victim line's own storage. A burst that fails part-way must still
// leave that line invalid, so that nothing hits on what it half holds,
// and must charge what the failed burst cost: the miss cycle, the grant
// and the wait states of the chunks that completed, with the AHB, the
// §3.2 adapter and the SDRAM controller counting exactly those. Each
// failure below is met by a D-cache read, and by the CPU as a load and
// as an instruction fetch, stepped by Step and by StepN alike.

// The SRAM at 0 holds the code, the data and the trap vectors; each
// failure mounts its window at failBase, above it.
const (
	fillSRAM = 0x10000
	failBase = 0x10000
)

// fillFailure is one way a line fill fails.
type fillFailure struct {
	name string
	// mount maps the failing window onto bus and returns the adapter
	// and controller behind it, if any.
	mount func(t *testing.T, bus *amba.AHB) (*ahbadapter.Adapter, *mem.Controller)
	addr  uint32 // a line whose fill fails
	// What one failed D-cache read costs and counts.
	cycles  int
	ahb     amba.Stats
	adapter ahbadapter.Stats
	ctrl    mem.ControllerStats
}

func mustMap(t *testing.T, bus *amba.AHB, name string, base, size uint32, s amba.Slave) {
	t.Helper()
	if err := bus.Map(name, base, size, s); err != nil {
		t.Fatal(err)
	}
}

func fillFailures() []fillFailure {
	// The SDRAM window is wider than the 16-byte device behind it, so a
	// line's first chunk is served and its second runs out of range at
	// the controller port.
	sdram := func(burstWords int) func(*testing.T, *amba.AHB) (*ahbadapter.Adapter, *mem.Controller) {
		return func(t *testing.T, bus *amba.AHB) (*ahbadapter.Adapter, *mem.Controller) {
			ctrl := mem.NewController(mem.NewSDRAM(16))
			port, err := ctrl.Port("leon")
			if err != nil {
				t.Fatal(err)
			}
			ad := ahbadapter.New(port)
			ad.BurstWords = burstWords
			mustMap(t, bus, "sdram", failBase, 0x100, ad)
			return ad, ctrl
		}
	}
	return []fillFailure{
		{
			name: "burst crosses the region's end",
			mount: func(t *testing.T, bus *amba.AHB) (*ahbadapter.Adapter, *mem.Controller) {
				mustMap(t, bus, "short", failBase, 0x1F0, mem.NewSRAM(0x1F0))
				return nil, nil
			},
			addr:   failBase + 0x1E0,
			cycles: 1 + 1, // the miss and the grant
			ahb:    amba.Stats{BusErrors: 1},
		},
		{
			name: "burst fails in the ROM",
			mount: func(t *testing.T, bus *amba.AHB) (*ahbadapter.Adapter, *mem.Controller) {
				// A PROM image shorter than its window.
				mustMap(t, bus, "prom", failBase, 0x100, &ROM{data: make([]byte, 16), WaitStates: 2})
				return nil, nil
			},
			addr:   failBase,
			cycles: 1 + 1,
			ahb:    amba.Stats{BusErrors: 1},
		},
		{
			name:    "SDRAM port fails on the second chunk",
			mount:   sdram(4),
			addr:    failBase,
			cycles:  1 + 1 + 8 + 2*2, // and the first chunk's handshake and two beats
			ahb:     amba.Stats{WaitCycles: 8 + 2*2, BusErrors: 1},
			adapter: ahbadapter.Stats{BurstChunks: 1},
			ctrl:    mem.ControllerStats{Requests: 1, ReadBeats: 2},
		},
		{
			// 12-byte chunks: each is covered by 16 bytes in the
			// adapter's scratch buffer, the second from 8 to 24.
			name:    "adapter's unaligned chunk fails",
			mount:   sdram(3),
			addr:    failBase,
			cycles:  1 + 1 + 8 + 2*2,
			ahb:     amba.Stats{WaitCycles: 8 + 2*2, BusErrors: 1},
			adapter: ahbadapter.Stats{BurstChunks: 1, WastedWords: 1},
			ctrl:    mem.ControllerStats{Requests: 1, ReadBeats: 2},
		},
	}
}

// fillMachine is the memory system of one failure: the SRAM, the
// failing window and 1 KB direct-mapped caches of 32-byte lines.
type fillMachine struct {
	bus    *amba.AHB
	sram   *mem.SRAM
	ad     *ahbadapter.Adapter
	ctrl   *mem.Controller
	ic, dc *cache.Cache
}

func newFillMachine(t *testing.T, f fillFailure) *fillMachine {
	t.Helper()
	m := &fillMachine{bus: amba.NewAHB(), sram: mem.NewSRAM(fillSRAM)}
	mustMap(t, m.bus, "sram", 0, fillSRAM, m.sram)
	m.ad, m.ctrl = f.mount(t, m.bus)
	var err error
	cfg := cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}
	if m.ic, err = cache.New(cfg, m.bus); err != nil {
		t.Fatal(err)
	}
	if m.dc, err = cache.New(cfg, m.bus); err != nil {
		t.Fatal(err)
	}
	return m
}

// counters is everything the machine counts, for comparing two.
func (m *fillMachine) counters() string {
	s := fmt.Sprintf("ahb %+v icache %+v dcache %+v", m.bus.Stats(), m.ic.Stats(), m.dc.Stats())
	if m.ad != nil {
		s += fmt.Sprintf(" adapter %+v controller %+v", m.ad.Stats(), m.ctrl.Stats())
	}
	return s
}

// TestFailedFillLeavesLineInvalid: a D-cache read whose fill fails
// evicts the resident line of its set and leaves it invalid, charging
// the failed burst's cycles and counts. A second read fails the same
// way, and the evicted address refills with its own data.
func TestFailedFillLeavesLineInvalid(t *testing.T) {
	for _, f := range fillFailures() {
		t.Run(f.name, func(t *testing.T) {
			m := newFillMachine(t, f)
			victim := 0x4000 + f.addr&0x3FF // same set as f.addr
			if err := m.sram.Poke32(victim, 0xCAFEBABE); err != nil {
				t.Fatal(err)
			}
			if v, _, err := m.dc.Read(victim, amba.SizeWord); err != nil || v != 0xCAFEBABE {
				t.Fatalf("victim read = %#x, %v", v, err)
			}
			m.bus.ResetStats()
			m.dc.ResetStats()
			for i := 1; i <= 2; i++ {
				_, cycles, err := m.dc.Read(f.addr, amba.SizeWord)
				if err == nil {
					t.Fatalf("read %d of %#x succeeded", i, f.addr)
				}
				if cycles != f.cycles {
					t.Errorf("read %d cost %d cycles, want %d", i, cycles, f.cycles)
				}
				if m.dc.Contains(f.addr) || m.dc.Contains(victim) {
					t.Fatalf("read %d left a valid line in the set", i)
				}
				if i > 1 {
					break
				}
				if st := m.bus.Stats(); st != f.ahb {
					t.Errorf("AHB counted %+v, want %+v", st, f.ahb)
				}
				if st := m.dc.Stats(); st != (cache.Stats{Misses: 1}) {
					t.Errorf("D-cache counted %+v, want one miss and no fill", st)
				}
				if m.ad != nil {
					if st := m.ad.Stats(); st != f.adapter {
						t.Errorf("adapter counted %+v, want %+v", st, f.adapter)
					}
					if st := m.ctrl.Stats(); st != f.ctrl {
						t.Errorf("controller counted %+v, want %+v", st, f.ctrl)
					}
				}
			}
			if v, _, err := m.dc.Read(victim, amba.SizeWord); err != nil || v != 0xCAFEBABE {
				t.Fatalf("victim re-read = %#x, %v", v, err)
			}
		})
	}
}

// TestFailedFillTrapsAlike: a load from a line whose fill fails takes
// the data access exception, and a jump to one the instruction access
// exception, at the same step, cycle and counts under StepN (whose
// dispatch meets the fetch miss at a line crossing) as under Step, in
// batches of every size.
func TestFailedFillTrapsAlike(t *testing.T) {
	for _, f := range fillFailures() {
		for _, tc := range []struct {
			op string
			tt uint8
		}{
			{"ld [%g1], %g2", cpu.TrapDAccess},
			{"jmp %g1", cpu.TrapIAccess},
		} {
			src := fmt.Sprintf(`
	.org 0x10
	ba,a .			! instruction access exception
	.org 0x90
	ba,a .			! data access exception
	.org 0x1000
	wr %%g0, 0xA0, %%psr	! S=1, ET=1
	nop
	nop
	nop
	set %#x, %%g1
	add %%g3, 1, %%g3
	add %%g3, 1, %%g3
	add %%g3, 1, %%g3
	add %%g3, 1, %%g3
	%s
	nop
	ba,a .
`, f.addr, tc.op)
			obj, err := asm.AssembleAt(src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 2, 3, 5, 8, 64} {
				tag := fmt.Sprintf("%s, %q, batch %d", f.name, tc.op, batch)
				var ms [2]*fillMachine
				var cs [2]*cpu.CPU
				for i := range cs {
					ms[i] = newFillMachine(t, f)
					if err := ms[i].sram.Poke(0, obj.Code); err != nil {
						t.Fatal(err)
					}
					if cs[i], err = cpu.New(cpu.DefaultConfig(), ms[i].ic, ms[i].dc, nil); err != nil {
						t.Fatal(err)
					}
					cs[i].SetICache(ms[i].ic)
					cs[i].SetPC(0x1000)
				}
				a, b := cs[0], cs[1]
				const total = 30
				for done := 0; done < total; {
					n := min(batch, total-done)
					if got, err := a.StepN(n, ^uint64(0), ^uint32(0)); err != nil || got != n {
						t.Fatalf("%s: StepN(%d) = %d, %v", tag, n, got, err)
					}
					for i := 0; i < n; i++ {
						if err := b.Step(); err != nil {
							t.Fatalf("%s: Step: %v", tag, err)
						}
					}
					done += n
					sa := fmt.Sprintf("pc %#x npc %#x psr %#x tbr %#x cycles %d %+v %s",
						a.PC(), a.NPC(), a.PSR(), a.TBR(), a.Cycles, a.Stats(), ms[0].counters())
					sb := fmt.Sprintf("pc %#x npc %#x psr %#x tbr %#x cycles %d %+v %s",
						b.PC(), b.NPC(), b.PSR(), b.TBR(), b.Cycles, b.Stats(), ms[1].counters())
					if sa != sb {
						t.Fatalf("%s: after %d steps StepN and Step diverged:\n StepN %s\n  Step %s", tag, done, sa, sb)
					}
				}
				if got := b.TBR() >> 4 & 0xFF; got != uint32(tc.tt) || b.Stats().Traps != 1 {
					t.Fatalf("%s: took %d traps, the last tt %#x; want one, tt %#x", tag, b.Stats().Traps, got, tc.tt)
				}
			}
		}
	}
}
