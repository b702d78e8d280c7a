package cpu

// This file is the execution profile: per-PC retired-instruction
// counts for the Trace Analyzer's hot-spot report. The CPU keeps them
// itself so that a profiled run stays on the superblock dispatcher:
// Step credits each instruction it retires to its PC, and
// dispatchBlock credits its contiguous range of retired PCs as one
// block count, so a profiled block costs one counter bump. With no
// profile attached the cost is one nil check per block. An instruction
// is credited exactly when Stats().Instructions counts it (a trapping
// instruction is; an interrupt delivery, an annulled slot and a decode
// failure are not), so the counts always sum to the counter's advance
// while the profile is attached. Poll-loop fast-forward is off while a
// profile is attached, so no count is ever multiplied.

// profileSlot is one direct-mapped entry on the predecode index. It
// holds two independent counters: the per-PC count Step credits (tag
// is pc+1, 0 = empty, as in the predecode cache) and the count of one
// block dispatchBlock retired whole (head is its first PC + 1, k its
// length in instructions, 0 = empty).
type profileSlot struct {
	tag   uint32
	head  uint32
	k     uint32
	count uint64 // executions of tag-1
	runs  uint64 // executions of the block [head-1, head-1+4k)
}

// profile is the count table, with a spill map for a PC whose per-PC
// counter another PC holds. claimed lists the slot indices in use, so
// starting and harvesting a profile touch only those, not the whole
// table. The CPU allocates it on its first StartProfile and reuses it
// after.
type profile struct {
	slots   []profileSlot
	claimed []uint16
	spill   map[uint32]uint64
}

// add credits n executions at pc.
func (p *profile) add(pc uint32, n uint64) {
	i := (pc >> 2) & predecodeMask
	s := &p.slots[i]
	switch s.tag {
	case pc + 1:
		s.count += n
	case 0:
		if s.head == 0 {
			p.claimed = append(p.claimed, uint16(i))
		}
		s.tag, s.count = pc+1, n
	default:
		p.spill[pc] += n
	}
}

// creditBlock adds one execution of the k words [head, head+4k). A
// slot counts one block at a time: a block with another head or
// another length settles the slot's count into the per-PC counters and
// takes the slot over, so a head whose first block was cut short (a
// line miss, a gate) counts by block again once it runs whole.
func (p *profile) creditBlock(head uint32, k int) {
	i := (head >> 2) & predecodeMask
	s := &p.slots[i]
	if s.head == head+1 && s.k == uint32(k) {
		s.runs++
		return
	}
	switch {
	case s.head != 0: // settle the slot's block
		for pc, n := s.head-1, s.k; n > 0; pc, n = pc+4, n-1 {
			p.add(pc, s.runs)
		}
	case s.tag == 0:
		p.claimed = append(p.claimed, uint16(i))
	}
	s.head, s.k, s.runs = head+1, uint32(k), 1
}

// StartProfile zeroes the execution profile and attaches it: from now
// on every retired instruction is credited to its PC, and poll-loop
// fast-forward is off so every count is exact.
func (c *CPU) StartProfile() {
	p := &c.profile
	if p.slots == nil {
		p.slots = make([]profileSlot, predecodeEntries)
		p.claimed = make([]uint16, 0, predecodeEntries)
		p.spill = make(map[uint32]uint64)
	}
	for _, i := range p.claimed {
		p.slots[i] = profileSlot{}
	}
	p.claimed = p.claimed[:0]
	clear(p.spill)
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
	for _, i := range p.claimed {
		s := &p.slots[i]
		if s.tag != 0 {
			into[s.tag-1] += s.count
		}
		for pc, k := s.head-1, s.k; k > 0; pc, k = pc+4, k-1 {
			into[pc] += s.runs
		}
	}
	for pc, n := range p.spill {
		into[pc] += n
	}
}
