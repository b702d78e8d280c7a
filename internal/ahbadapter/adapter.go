// Package ahbadapter implements the memory adapter of §3.2 of the
// paper: the finite-state bridge between the 32-bit AMBA AHB bus-slave
// interface and the 64-bit FPX SDRAM controller handshake.
//
// The design decisions it reproduces:
//
//   - Single 32-bit reads select the appropriate half of a 64-bit word
//     (wasting half the memory bandwidth).
//   - Writes are read-modify-write: the controller must first read the
//     64-bit word, merge the 32 (or fewer) written bits, and write it
//     back — two separate handshakes per write, "significantly
//     impairing performance".
//   - Read bursts are always issued as short sequential bursts of up to
//     4 32-bit words; longer AHB bursts pay at least one additional
//     handshake per 4-word chunk. A couple of beats are wasted when the
//     burst is shorter, but the 4-word fill avoids per-word handshakes.
//   - Write bursts are not allowed (burst length is unknown ahead of
//     time on the AHB), keeping memory integrity intact.
package ahbadapter

import (
	"fmt"

	"liquidarch/internal/amba"
	"liquidarch/internal/mem"
)

// Stats counts adapter activity for the E5 experiments.
type Stats struct {
	SingleReads  uint64
	SingleWrites uint64
	RMWCycles    uint64 // cycles spent in read-modify-write
	BurstChunks  uint64 // 4-word chunks issued for AHB bursts
	WastedWords  uint64 // 32-bit words fetched beyond what the AHB asked for
}

// Adapter bridges the AHB to one port of the FPX SDRAM controller. It
// implements amba.Slave.
type Adapter struct {
	port *mem.Port

	// BurstWords is the fixed read-burst chunk size in 32-bit words
	// (the paper uses 4; configurable for the ablation study E5/§6).
	BurstWords int

	// beats receives each read-burst chunk; it grows with BurstWords
	// and is reused, so a burst allocates nothing.
	beats []uint64

	stats Stats
}

// New returns an adapter over the given controller port using the
// paper's 4-word read chunk.
func New(port *mem.Port) *Adapter {
	return &Adapter{port: port, BurstWords: 4}
}

// Stats returns a snapshot of the adapter counters.
func (a *Adapter) Stats() Stats { return a.stats }

// ResetStats zeroes the adapter counters.
func (a *Adapter) ResetStats() { a.stats = Stats{} }

// read64 fetches the 64-bit word containing addr.
func (a *Adapter) read64(addr uint32) (uint64, int, error) {
	var buf [1]uint64
	cycles, err := a.port.ReadBurst(addr&^7, buf[:])
	return buf[0], cycles, err
}

// Read implements amba.Slave: a single-mode burst of one 64-bit word,
// selecting the addressed bytes.
func (a *Adapter) Read(addr uint32, size amba.Size) (uint32, int, error) {
	w64, cycles, err := a.read64(addr)
	if err != nil {
		return 0, cycles, err
	}
	a.stats.SingleReads++
	// Select the appropriate 32-bit word, then the sub-word bytes.
	word := uint32(w64 >> ((4 - addr&4) * 8) & 0xFFFFFFFF)
	switch size {
	case amba.SizeWord:
		return word, cycles, nil
	case amba.SizeHalf:
		return word >> ((2 - addr&2) * 8) & 0xFFFF, cycles, nil
	default:
		return word >> ((3 - addr&3) * 8) & 0xFF, cycles, nil
	}
}

// Write implements amba.Slave: read the full 64-bit word, modify the
// addressed bits, write it back — two handshakes.
func (a *Adapter) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	w64, rc, err := a.read64(addr)
	if err != nil {
		return rc, err
	}
	var mask uint64
	var shift uint32
	switch size {
	case amba.SizeWord:
		shift = (4 - addr&4) * 8
		mask = 0xFFFFFFFF
	case amba.SizeHalf:
		shift = (6 - addr&6) * 8
		mask = 0xFFFF
	default:
		shift = (7 - addr&7) * 8
		mask = 0xFF
	}
	w64 = w64&^(mask<<shift) | (uint64(val)&mask)<<shift
	wc, err := a.port.WriteBurst(addr&^7, []uint64{w64})
	if err != nil {
		return rc + wc, err
	}
	a.stats.SingleWrites++
	a.stats.RMWCycles += uint64(rc + wc)
	return rc + wc, nil
}

// ReadBurst implements amba.Slave: the AHB burst is served in chunks of
// BurstWords 32-bit words, each chunk one declared sequential burst on
// the SDRAM side.
func (a *Adapter) ReadBurst(addr uint32, words []uint32) (int, error) {
	if a.BurstWords < 1 {
		return 0, fmt.Errorf("ahbadapter: invalid BurstWords %d", a.BurstWords)
	}
	total := 0
	for done := 0; done < len(words); {
		n := len(words) - done
		if n > a.BurstWords {
			n = a.BurstWords
		}
		chunkAddr := addr + uint32(done)*4
		// Cover the chunk with whole 64-bit words.
		start := chunkAddr &^ 7
		end := (chunkAddr + uint32(n)*4 + 7) &^ 7
		need := int(end-start) / 8
		if cap(a.beats) < need {
			a.beats = make([]uint64, need)
		}
		beats := a.beats[:need]
		cycles, err := a.port.ReadBurst(start, beats)
		total += cycles
		if err != nil {
			return total, err
		}
		a.stats.BurstChunks++
		a.stats.WastedWords += uint64(len(beats))*2 - uint64(n)
		for i := 0; i < n; i++ {
			byteOff := chunkAddr + uint32(i)*4 - start
			w64 := beats[byteOff/8]
			words[done+i] = uint32(w64 >> ((4 - byteOff&4) * 8) & 0xFFFFFFFF)
		}
		done += n
	}
	return total, nil
}
