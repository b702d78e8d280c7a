package trace

import (
	"liquidarch/internal/amba"
	"liquidarch/internal/cpu"
)

const (
	// SummaryMaxEvents is how many data accesses a Summary counts;
	// later ones are reported as dropped.
	SummaryMaxEvents = 1 << 20
	// SummaryLineBytes is the line size of a Summary's working set.
	SummaryLineBytes = 32
)

// Summary captures what the Trace Analyzer's report needs without
// storing the data stream: the first SummaryMaxEvents accesses are
// counted as reads or writes and their SummaryLineBytes lines are
// marked in sparse bitmap pages, so the working set is exact; later
// accesses count as dropped. A run costs O(pages touched) memory, not
// O(accesses). Attach it to a CPU before the run and Detach after.
type Summary struct {
	capture
	maxEvents              uint64 // SummaryMaxEvents; lowered by tests
	reads, writes, dropped uint64
	lines                  int
	pages                  map[uint32]*linePage
	last                   *linePage // pages[lastKey], or nil
	lastKey                uint32
}

const (
	lineShift = 5  // log2(SummaryLineBytes)
	pageShift = 12 // log2(pageLines)
	pageLines = 1 << pageShift
)

// linePage is the bitmap of one page of address space: a bit per
// line, pageLines lines (128 KB) per page.
type linePage [pageLines / 64]uint64

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{maxEvents: SummaryMaxEvents, pages: make(map[uint32]*linePage)}
}

// Attach starts c's execution profile and installs the summary on c's
// memory hook (chaining any existing one). A summary attached
// elsewhere is detached first.
func (s *Summary) Attach(c *cpu.CPU) { s.attach(c, s.onMem) }

func (s *Summary) onMem(addr uint32, _ amba.Size, write bool) {
	if s.reads+s.writes >= s.maxEvents {
		s.dropped++
		return
	}
	if write {
		s.writes++
	} else {
		s.reads++
	}
	line := addr >> lineShift
	key := line >> pageShift
	pg := s.last
	if pg == nil || key != s.lastKey {
		if pg = s.pages[key]; pg == nil {
			pg = new(linePage)
			s.pages[key] = pg
		}
		s.last, s.lastKey = pg, key
	}
	bit := line & (pageLines - 1)
	if w, m := &pg[bit/64], uint64(1)<<(bit%64); *w&m == 0 {
		*w |= m
		s.lines++
	}
}

// Events returns how many accesses were summarized: at most
// SummaryMaxEvents.
func (s *Summary) Events() int { return int(s.reads + s.writes) }

// Reads returns how many summarized accesses were reads.
func (s *Summary) Reads() int { return int(s.reads) }

// Writes returns how many summarized accesses were writes.
func (s *Summary) Writes() int { return int(s.writes) }

// Dropped returns how many accesses exceeded SummaryMaxEvents.
func (s *Summary) Dropped() uint64 { return s.dropped }

// WorkingSet returns the number of distinct SummaryLineBytes-sized
// blocks the summarized accesses touched, and the bytes they span.
func (s *Summary) WorkingSet() (lines int, bytes int) {
	return s.lines, s.lines * SummaryLineBytes
}
