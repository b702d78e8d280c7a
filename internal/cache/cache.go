// Package cache models the LEON instruction and data caches whose
// geometry the Liquid Architecture makes reconfigurable: "Variable
// instruction/data cache size" is one of the extension axes named in
// §1, and the paper's evaluation (Figures 7-9) sweeps the data cache
// from 1 KB to 16 KB at a constant 32-byte line.
//
// The model is a physically-indexed set-associative cache with
// configurable size, line size, associativity, replacement policy and
// write policy. LEON2's base configuration is direct-mapped,
// write-through, no-write-allocate; the alternatives exist for the
// design-space exploration the liquid environment performs.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"liquidarch/internal/amba"
)

// Replacement selects the victim policy for associative configurations.
type Replacement uint8

// Replacement policies.
const (
	LRU Replacement = iota
	RoundRobin
	Random // xorshift PRNG, deterministic across runs
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case RoundRobin:
		return "rr"
	case Random:
		return "rnd"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// WritePolicy selects how stores interact with the cache.
type WritePolicy uint8

// Write policies.
const (
	// WriteThrough writes to memory on every store and updates the
	// cache only on hit (no write allocate) — the LEON2 scheme.
	WriteThrough WritePolicy = iota
	// WriteBack marks lines dirty and writes them back on eviction
	// (write allocate). A liquid-architecture extension point.
	WriteBack
)

func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Config is one point in the cache design space.
type Config struct {
	// SizeBytes is the total capacity; must be a power of two.
	SizeBytes int
	// LineBytes is the refill unit; must be a power of two ≥ 4.
	LineBytes int
	// Assoc is the number of ways; must divide SizeBytes/LineBytes.
	Assoc int
	// Replacement applies when Assoc > 1.
	Replacement Replacement
	// Write selects the store policy (data caches only).
	Write WritePolicy
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d is not a positive power of two", c.SizeBytes)
	case c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d is not a power of two ≥ 4", c.LineBytes)
	case c.LineBytes > c.SizeBytes:
		return fmt.Errorf("cache: line size %d exceeds capacity %d", c.LineBytes, c.SizeBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d is not positive", c.Assoc)
	case (c.SizeBytes/c.LineBytes)%c.Assoc != 0:
		return fmt.Errorf("cache: %d lines do not divide into %d ways", c.SizeBytes/c.LineBytes, c.Assoc)
	}
	return nil
}

// Lines returns the total number of lines.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

func (c Config) String() string {
	return fmt.Sprintf("%dB/%dB-line/%d-way/%s/%s",
		c.SizeBytes, c.LineBytes, c.Assoc, c.Replacement, c.Write)
}

// Stats accumulates cache behaviour counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	WriteHits  uint64
	WriteMiss  uint64
	Fills      uint64 // line fills from memory
	WriteBacks uint64 // dirty evictions (write-back only)
	Flushes    uint64
}

// MissRatio returns misses/(hits+misses) over read accesses, or 0 when
// there were none.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	data  []byte
	age   uint64 // LRU timestamp
}

// Cache is one cache instance in front of the AHB.
type Cache struct {
	cfg  Config
	bus  *amba.AHB
	base uint32 // AHB base address of the cached region's origin (0: identity)

	// Precomputed index geometry: Config.Sets() divides twice per
	// call, far too slow for something recomputed on every access of
	// the simulation hot loop.
	lineShift uint32 // log2(LineBytes)
	setShift  uint32 // lineShift + log2(Sets)
	setMask   uint32 // Sets-1
	offMask   uint32 // LineBytes-1

	// all is the contiguous backing array for every line; sets holds
	// per-set windows into it. The instruction-fetch fast path indexes
	// all directly (set*assoc+way) to skip one pointer chase.
	all     []line
	assoc   uint32
	direct  bool // Assoc == 1: no replacement state to maintain
	sets    [][]line
	tick    uint64
	rrNext  []int  // per-set round-robin pointer
	rnd     uint32 // xorshift state
	enabled bool

	// fillBuf receives a line fill's burst, so a miss allocates
	// nothing.
	fillBuf []uint32

	// stale records that a resident line may differ from memory: memory
	// behind it was written other than through this cache (NoteWrite,
	// MarkStale). A flush clears it.
	stale bool

	stats Stats
}

// New builds a cache with the given geometry in front of bus. Accesses
// use full AHB addresses; the cache is physically indexed and tagged.
func New(cfg Config, bus *amba.AHB) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, bus: bus, rnd: 0x2545F491, enabled: true}
	c.lineShift = uint32(bits.TrailingZeros32(uint32(cfg.LineBytes)))
	c.setShift = c.lineShift + uint32(bits.TrailingZeros32(uint32(cfg.Sets())))
	c.setMask = uint32(cfg.Sets() - 1)
	c.offMask = uint32(cfg.LineBytes - 1)
	c.assoc = uint32(cfg.Assoc)
	c.direct = cfg.Assoc == 1
	c.all = make([]line, cfg.Lines())
	c.sets = make([][]line, cfg.Sets())
	c.rrNext = make([]int, cfg.Sets())
	c.fillBuf = make([]uint32, cfg.LineBytes/4)
	backing := make([]byte, cfg.SizeBytes)
	for i := range c.all {
		c.all[i].data = backing[:cfg.LineBytes:cfg.LineBytes]
		backing = backing[cfg.LineBytes:]
	}
	for i := range c.sets {
		c.sets[i] = c.all[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the behaviour counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the behaviour counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetEnabled turns the cache on or off; when off, every access goes to
// the bus directly (the LEON cache control register's disable mode).
func (c *Cache) SetEnabled(on bool) { c.enabled = on }

// Enabled reports whether the cache is on.
func (c *Cache) Enabled() bool { return c.enabled }

func (c *Cache) index(addr uint32) (set uint32, tag uint32, off uint32) {
	off = addr & c.offMask
	set = (addr >> c.lineShift) & c.setMask
	tag = addr >> c.setShift
	return
}

// lookup returns the way holding addr, or -1.
func (c *Cache) lookup(set, tag uint32) int {
	for w := range c.sets[set] {
		if l := &c.sets[set][w]; l.valid && l.tag == tag {
			return w
		}
	}
	return -1
}

// victim picks the way to evict in set.
func (c *Cache) victim(set uint32) int {
	ways := c.sets[set]
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			return w
		}
	}
	switch c.cfg.Replacement {
	case RoundRobin:
		w := c.rrNext[set]
		c.rrNext[set] = (w + 1) % c.cfg.Assoc
		return w
	case Random:
		c.rnd ^= c.rnd << 13
		c.rnd ^= c.rnd >> 17
		c.rnd ^= c.rnd << 5
		return int(c.rnd) & (c.cfg.Assoc - 1)
	default: // LRU
		oldest, w := ways[0].age, 0
		for i := 1; i < len(ways); i++ {
			if ways[i].age < oldest {
				oldest, w = ways[i].age, i
			}
		}
		return w
	}
}

// fill brings the line containing addr into the cache, returning the
// way and the bus cycles spent (including any write-back).
func (c *Cache) fill(addr uint32) (int, int, error) {
	set, tag, _ := c.index(addr)
	w := c.victim(set)
	l := &c.sets[set][w]
	cycles := 0
	if l.valid && l.dirty {
		wb, err := c.writeBackLine(set, l)
		cycles += wb
		if err != nil {
			return w, cycles, err
		}
	}
	lineAddr := addr &^ (uint32(c.cfg.LineBytes) - 1)
	words := c.fillBuf
	n, err := c.bus.ReadBurst(lineAddr, words)
	cycles += n
	if err != nil {
		l.valid = false
		return w, cycles, err
	}
	for i, v := range words {
		putBE32(l.data[i*4:], v)
	}
	l.valid, l.dirty, l.tag = true, false, tag
	c.tick++
	l.age = c.tick
	c.stats.Fills++
	return w, cycles, nil
}

func (c *Cache) writeBackLine(set uint32, l *line) (int, error) {
	addr := l.tag<<c.setShift | set<<c.lineShift
	cycles := 0
	for i := 0; i < c.cfg.LineBytes; i += 4 {
		n, err := c.bus.Write(addr+uint32(i), getBE32(l.data[i:]), amba.SizeWord)
		cycles += n
		if err != nil {
			return cycles, err
		}
	}
	c.stats.WriteBacks++
	l.dirty = false
	return cycles, nil
}

// getBE32/putBE32 go through encoding/binary so the compiler emits a
// single (byte-swapped) 32-bit load/store instead of four byte ops.
func getBE32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func putBE32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }

// Read performs a cached read of the given size. The returned cycle
// count includes the 1-cycle hit access plus any fill traffic.
func (c *Cache) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if !c.enabled {
		return c.bus.Read(addr, size)
	}
	// Direct-mapped hit fast path: same accounting as the general
	// path below (Hits++, tick/age update, 1 cycle) without the
	// two-level set/way indexing.
	if c.direct {
		l := &c.all[(addr>>c.lineShift)&c.setMask]
		if l.valid && l.tag == addr>>c.setShift {
			c.stats.Hits++
			c.tick++
			l.age = c.tick
			return extract(getBE32(l.data[addr&c.offMask&^3:]), addr, size), 1, nil
		}
	}
	set, tag, off := c.index(addr)
	w := c.lookup(set, tag)
	cycles := 1
	if w < 0 {
		c.stats.Misses++
		var n int
		var err error
		w, n, err = c.fill(addr)
		cycles += n
		if err != nil {
			return 0, cycles, err
		}
	} else {
		c.stats.Hits++
		c.tick++
		c.sets[set][w].age = c.tick
	}
	l := &c.sets[set][w]
	return extract(getBE32(l.data[off&^3:]), addr, size), cycles, nil
}

// extract narrows an aligned big-endian word to the addressed byte,
// halfword or word.
func extract(word, addr uint32, size amba.Size) uint32 {
	switch size {
	case amba.SizeWord:
		return word
	case amba.SizeHalf:
		return word >> ((2 - addr&2) * 8) & 0xFFFF
	default:
		return word >> ((3 - addr&3) * 8) & 0xFF
	}
}

// FetchWord reads the aligned word containing addr for instruction
// fetch. It is behaviourally identical to Read(addr, amba.SizeWord) —
// same cycle accounting, statistics and replacement-state updates — but
// it is a concrete method the CPU's fetch path can call without an
// interface dispatch, and it additionally reports whether the access
// hit a resident line of an enabled cache. The predecode layer uses
// that flag: a predecoded instruction may be reused only against the
// word the cache actually served.
func (c *Cache) FetchWord(addr uint32) (word uint32, cycles int, hit bool, err error) {
	if !c.enabled {
		word, cycles, err = c.bus.Read(addr, amba.SizeWord)
		return word, cycles, false, err
	}
	set := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.setShift
	// Unrolled first-way probe on the flat line array: instruction
	// caches are direct-mapped in every configuration the paper
	// sweeps, so the common case is one compare with no LRU
	// bookkeeping (a single way has no replacement decision to bias).
	l0 := &c.all[set*c.assoc]
	if l0.valid && l0.tag == tag {
		c.stats.Hits++
		if !c.direct {
			c.tick++
			l0.age = c.tick
		}
		return getBE32(l0.data[addr&c.offMask&^3:]), 1, true, nil
	}
	if !c.direct {
		ways := c.sets[set]
		for w := 1; w < len(ways); w++ {
			if l := &ways[w]; l.valid && l.tag == tag {
				c.stats.Hits++
				c.tick++
				l.age = c.tick
				return getBE32(l.data[addr&c.offMask&^3:]), 1, true, nil
			}
		}
	}
	c.stats.Misses++
	w, n, err := c.fill(addr)
	if err != nil {
		return 0, 1 + n, false, err
	}
	return getBE32(c.sets[set][w].data[addr&c.offMask&^3:]), 1 + n, false, nil
}

// PeekLine returns the resident line containing addr for the
// superblock dispatcher, or ok=false when the fast path does not apply.
// It succeeds only for an enabled, direct-mapped cache with the line
// resident, because in exactly that regime FetchWord's per-word hit is
// pure: 1 cycle, one Hits count, and — direct-mapped — no LRU tick or
// age update. The caller executes straight-line instructions out of the
// returned line and settles the per-word accounting with AddFetchHits;
// any other configuration (miss, disabled, associative) must go through
// FetchWord so fills, stats and replacement state stay exact.
//
// The returned slice aliases the live line storage: it is valid only
// until the next cache operation and must not be written through.
func (c *Cache) PeekLine(addr uint32) ([]byte, bool) {
	if !c.enabled || !c.direct {
		return nil, false
	}
	l := &c.all[(addr>>c.lineShift)&c.setMask]
	if !l.valid || l.tag != addr>>c.setShift {
		return nil, false
	}
	return l.data, true
}

// AddFetchHits credits n instruction fetches served out of a line
// obtained with PeekLine — the bulk form of FetchWord's per-hit
// Hits++ so cache statistics stay identical under block dispatch.
func (c *Cache) AddFetchHits(n uint64) { c.stats.Hits += n }

// FetchCounts returns the running read hit and miss counters. The spin
// fast-forward probe brackets a loop iteration with it: a zero miss
// delta proves every fetch in the iteration was a pure resident hit,
// so replaying the iteration cannot change cache state.
func (c *Cache) FetchCounts() (hits, misses uint64) {
	return c.stats.Hits, c.stats.Misses
}

// NoteWrite records that memory at addr was written other than through
// this cache, as the CPU's stores reach memory past its instruction
// cache: if addr's line is resident, the cache may now hold a line that
// differs from memory. An associative cache is marked without a probe.
func (c *Cache) NoteWrite(addr uint32) {
	if !c.direct {
		c.stale = true
		return
	}
	if l := &c.all[(addr>>c.lineShift)&c.setMask]; l.valid && l.tag == addr>>c.setShift {
		c.stale = true
	}
}

// MarkStale records that any resident line may differ from memory.
func (c *Cache) MarkStale() { c.stale = true }

// Stale reports whether a resident line may differ from memory, that is
// whether memory was written other than through the cache (NoteWrite,
// MarkStale) since the last flush.
func (c *Cache) Stale() bool { return c.stale }

// Write performs a cached write of the given size and returns the bus
// cycles consumed.
func (c *Cache) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	if !c.enabled {
		return c.bus.Write(addr, val, size)
	}
	// Direct-mapped write-through fast path: identical accounting to
	// the general path below (write-hit/miss stats, tick/age on hit,
	// no write allocate, always through to the bus).
	if c.direct && c.cfg.Write != WriteBack {
		l := &c.all[(addr>>c.lineShift)&c.setMask]
		if l.valid && l.tag == addr>>c.setShift {
			c.stats.WriteHits++
			c.mergeWrite(l, addr&c.offMask, addr, val, size)
			c.tick++
			l.age = c.tick
		} else {
			c.stats.WriteMiss++
		}
		return c.bus.Write(addr, val, size)
	}
	set, tag, off := c.index(addr)
	w := c.lookup(set, tag)
	switch c.cfg.Write {
	case WriteBack:
		cycles := 1
		if w < 0 {
			c.stats.WriteMiss++
			var n int
			var err error
			w, n, err = c.fill(addr) // write allocate
			cycles += n
			if err != nil {
				return cycles, err
			}
		} else {
			c.stats.WriteHits++
		}
		l := &c.sets[set][w]
		c.mergeWrite(l, off, addr, val, size)
		l.dirty = true
		c.tick++
		l.age = c.tick
		return cycles, nil
	default: // WriteThrough, no write allocate
		if w >= 0 {
			c.stats.WriteHits++
			l := &c.sets[set][w]
			c.mergeWrite(l, off, addr, val, size)
			c.tick++
			l.age = c.tick
		} else {
			c.stats.WriteMiss++
		}
		return c.bus.Write(addr, val, size)
	}
}

func (c *Cache) mergeWrite(l *line, off, addr, val uint32, size amba.Size) {
	if size == amba.SizeWord {
		putBE32(l.data[off&^3:], val) // full word: no read-merge needed
		return
	}
	word := getBE32(l.data[off&^3:])
	switch size {
	case amba.SizeHalf:
		shift := (2 - addr&2) * 8
		word = word&^(0xFFFF<<shift) | val&0xFFFF<<shift
	default:
		shift := (3 - addr&3) * 8
		word = word&^(0xFF<<shift) | val&0xFF<<shift
	}
	putBE32(l.data[off&^3:], word)
}

// Flush invalidates the whole cache (the FLUSH instruction and the
// boot-code "flush" of Fig. 5), writing back dirty lines first when the
// policy requires it. It returns the bus cycles spent.
func (c *Cache) Flush() (int, error) {
	cycles := 0
	for set := range c.sets {
		for w := range c.sets[set] {
			l := &c.sets[set][w]
			if l.valid && l.dirty {
				n, err := c.writeBackLine(uint32(set), l)
				cycles += n
				if err != nil {
					return cycles, err
				}
			}
			l.valid = false
		}
	}
	c.stats.Flushes++
	c.stale = false
	return cycles, nil
}

// Contains reports whether addr currently hits in the cache (test and
// diagnostic aid; does not touch the stats or LRU state).
func (c *Cache) Contains(addr uint32) bool {
	set, tag, _ := c.index(addr)
	return c.lookup(set, tag) >= 0
}
