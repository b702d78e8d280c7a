// Package trace implements the Trace Analyzer of Fig. 1: "execution
// traces are analyzed to identify candidate portions of an application
// whose performance could be improved through reconfigurability". It
// captures the instruction stream as the CPU's per-PC execution profile
// and the data stream from the CPU's memory hook, and answers the
// questions the Architecture Generator asks: where are the hot spots,
// how big is the working set, and how would a different cache geometry
// have behaved (by replaying the recorded address stream through cache
// models, far cheaper than re-running the program). A Recorder stores
// the data stream for replay; a Summary keeps only its counts and
// working set, computed as the accesses arrive.
package trace

import (
	"fmt"
	"sort"

	"liquidarch/internal/amba"
	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
)

// MemEvent is one data-memory access.
type MemEvent struct {
	Addr  uint32
	Size  uint8
	Write bool
}

// capture is the attachment Recorder and Summary share. The per-PC
// counts come from the CPU's execution profile (cpu.CPU.StartProfile),
// which keeps the run on the superblock dispatcher; they and the
// instruction count land at Detach. The data stream reaches the
// owner's handler live through the CPU's OnMem hook.
type capture struct {
	pcHeat   map[uint32]uint64
	insts    uint64
	instBase uint64 // CPU instruction counter at attach
	prevMem  func(uint32, amba.Size, bool)
	attached *cpu.CPU
}

// attach detaches from any CPU first, then starts c's execution
// profile and installs onMem on c's memory hook, chaining any existing
// one.
func (h *capture) attach(c *cpu.CPU, onMem func(uint32, amba.Size, bool)) {
	h.Detach()
	if h.pcHeat == nil {
		h.pcHeat = make(map[uint32]uint64)
	}
	h.attached = c
	h.instBase = c.Stats().Instructions
	c.StartProfile()
	prev := c.OnMem
	h.prevMem = prev
	if prev == nil {
		c.OnMem = onMem
		return
	}
	c.OnMem = func(addr uint32, size amba.Size, write bool) {
		onMem(addr, size, write)
		prev(addr, size, write)
	}
}

// Detach removes the capture, harvesting the CPU's execution profile
// and instruction count and restoring the prior memory hook. It does
// nothing when not attached.
func (h *capture) Detach() {
	c := h.attached
	if c == nil {
		return
	}
	c.StopProfile(h.pcHeat)
	h.insts += c.Stats().Instructions - h.instBase
	c.OnMem = h.prevMem
	h.attached, h.prevMem = nil, nil
}

// reset discards the instruction-stream results, including what an
// attached CPU's profile has counted so far.
func (h *capture) reset() {
	clear(h.pcHeat)
	h.insts = 0
	if c := h.attached; c != nil {
		c.StartProfile()
		h.instBase = c.Stats().Instructions
	}
}

// Instructions returns the executed-instruction count: how far the
// CPU's instruction counter advanced while attached.
func (h *capture) Instructions() uint64 { return h.insts }

// HotSpot is a program counter and its execution count.
type HotSpot struct {
	PC    uint32 `json:"pc"`
	Count uint64 `json:"count"`
}

// HotSpots returns the n most-executed instruction addresses (every
// executed one when n <= 0), descending — the candidate regions for
// reconfiguration.
func (h *capture) HotSpots(n int) []HotSpot {
	all := make([]HotSpot, 0, len(h.pcHeat))
	for pc, c := range h.pcHeat {
		all = append(all, HotSpot{PC: pc, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].PC < all[j].PC
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// Recorder captures a program's execution behaviour and stores its
// data stream for replay. Attach it to a CPU before the run and Detach
// after.
type Recorder struct {
	// MaxEvents caps the stored data stream (default 4M); further
	// events are counted in Dropped but not stored.
	MaxEvents int

	capture
	mem     []MemEvent
	dropped uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{MaxEvents: 4 << 20}
}

// Attach starts c's execution profile and installs the recorder on c's
// memory hook (chaining any existing one). A recorder attached
// elsewhere is detached first.
func (r *Recorder) Attach(c *cpu.CPU) { r.attach(c, r.onMem) }

func (r *Recorder) onMem(addr uint32, size amba.Size, write bool) {
	if len(r.mem) < r.MaxEvents {
		r.mem = append(r.mem, MemEvent{Addr: addr, Size: uint8(size), Write: write})
	} else {
		r.dropped++
	}
}

// Reset discards captured data, including what an attached CPU's
// profile has counted so far.
func (r *Recorder) Reset() {
	r.reset()
	r.mem = r.mem[:0]
	r.dropped = 0
}

// MemEvents returns the captured data stream.
func (r *Recorder) MemEvents() []MemEvent { return r.mem }

// Dropped returns how many events exceeded MaxEvents.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// WorkingSet returns the number of distinct lineBytes-sized blocks the
// data stream touched, and the total bytes they span.
func (r *Recorder) WorkingSet(lineBytes int) (lines int, bytes int) {
	if lineBytes <= 0 {
		lineBytes = 32
	}
	seen := make(map[uint32]struct{})
	for _, e := range r.mem {
		seen[e.Addr/uint32(lineBytes)] = struct{}{}
	}
	return len(seen), len(seen) * lineBytes
}

// SweepResult is the predicted behaviour of one cache configuration on
// the recorded stream.
type SweepResult struct {
	Config    cache.Config
	Stats     cache.Stats
	MissRatio float64
}

// SweepCaches replays the recorded data stream through each cache
// configuration and reports the resulting miss behaviour. This is the
// "Sim" feedback path of Fig. 1 run at trace speed.
func (r *Recorder) SweepCaches(configs []cache.Config) ([]SweepResult, error) {
	out := make([]SweepResult, 0, len(configs))
	for _, cfg := range configs {
		st, err := Replay(r.mem, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace: sweep %v: %w", cfg, err)
		}
		out = append(out, SweepResult{Config: cfg, Stats: st, MissRatio: st.MissRatio()})
	}
	return out, nil
}

// sinkSlave accepts every address with fixed latency; it backs replay
// caches so any recorded address is mappable.
type sinkSlave struct{}

func (sinkSlave) Read(addr uint32, size amba.Size) (uint32, int, error)      { return 0, 1, nil }
func (sinkSlave) Write(addr uint32, val uint32, size amba.Size) (int, error) { return 1, nil }
func (sinkSlave) ReadBurst(addr uint32, words []uint32) (int, error)         { return 1 + len(words), nil }

// Replay runs a memory-event stream through a fresh cache of the given
// geometry and returns its statistics.
func Replay(events []MemEvent, cfg cache.Config) (cache.Stats, error) {
	bus := amba.NewAHB()
	if err := bus.Map("sink", 0, 0xFFFFFFFF, sinkSlave{}); err != nil {
		return cache.Stats{}, err
	}
	c, err := cache.New(cfg, bus)
	if err != nil {
		return cache.Stats{}, err
	}
	for _, e := range events {
		sz := amba.Size(e.Size)
		if sz != amba.SizeByte && sz != amba.SizeHalf && sz != amba.SizeWord {
			sz = amba.SizeWord
		}
		addr := e.Addr &^ (uint32(sz) - 1)
		if e.Write {
			if _, err := c.Write(addr, 0, sz); err != nil {
				return cache.Stats{}, err
			}
		} else {
			if _, _, err := c.Read(addr, sz); err != nil {
				return cache.Stats{}, err
			}
		}
	}
	return c.Stats(), nil
}
