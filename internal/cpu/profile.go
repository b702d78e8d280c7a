package cpu

// This file is the execution profile: per-PC retired-instruction
// counts for the Trace Analyzer's hot-spot report. The CPU keeps them
// itself so that a profiled run stays on the superblock dispatcher:
// Step credits each instruction it retires, dispatchBlock credits its
// contiguous range of retired PCs once per block, and with no profile
// attached the cost is one nil check per block. An instruction is
// credited exactly when Stats().Instructions counts it (a trapping
// instruction is; an interrupt delivery, an annulled slot and a
// decode failure are not), so the counts always sum to the counter's
// advance while the profile is attached. Poll-loop fast-forward is off
// while a profile is attached, so no count is ever multiplied.

// profileSlot is one direct-mapped counter; tag is pc+1 (0 = empty),
// as in the predecode cache.
type profileSlot struct {
	tag   uint32
	count uint64
}

// profile is the per-PC count table: direct-mapped on the predecode
// index, with a spill map for a PC whose slot another PC holds. The
// CPU allocates it on its first StartProfile and reuses it after.
type profile struct {
	slots []profileSlot
	spill map[uint32]uint64
}

// credit adds one execution at pc.
func (p *profile) credit(pc uint32) {
	s := &p.slots[(pc>>2)&predecodeMask]
	switch s.tag {
	case pc + 1:
		s.count++
	case 0:
		s.tag, s.count = pc+1, 1
	default:
		p.spill[pc]++
	}
}

// creditRange adds one execution at each of the k word addresses
// [head, head+4k).
func (p *profile) creditRange(head uint32, k int) {
	for pc := head; k > 0; pc, k = pc+4, k-1 {
		p.credit(pc)
	}
}

// StartProfile zeroes the execution profile and attaches it: from now
// on every retired instruction is credited to its PC, and poll-loop
// fast-forward is off so every count is exact.
func (c *CPU) StartProfile() {
	p := &c.profile
	if p.slots == nil {
		p.slots = make([]profileSlot, predecodeEntries)
		p.spill = make(map[uint32]uint64)
	} else {
		clear(p.slots)
		clear(p.spill)
	}
	c.prof = p
}

// StopProfile detaches the execution profile and adds each executed
// PC's count to into. It does nothing when no profile is attached.
func (c *CPU) StopProfile(into map[uint32]uint64) {
	p := c.prof
	if p == nil {
		return
	}
	c.prof = nil
	for _, s := range p.slots {
		if s.tag != 0 {
			into[s.tag-1] += s.count
		}
	}
	for pc, n := range p.spill {
		into[pc] += n
	}
}
