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
	"encoding/binary"
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

	// beats receives a read-burst chunk that does not cover whole
	// 64-bit words of the AHB burst; it grows with BurstWords and is
	// reused, so a burst allocates nothing. An aligned chunk lands in
	// the burst's own buffer.
	beats []byte

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

// Read implements amba.Slave: a single-mode burst of one 64-bit word,
// selecting the addressed bytes.
func (a *Adapter) Read(addr uint32, size amba.Size) (uint32, int, error) {
	var w64 [8]byte
	cycles, err := a.port.ReadBurst(addr&^7, w64[:])
	if err != nil {
		return 0, cycles, err
	}
	a.stats.SingleReads++
	switch size {
	case amba.SizeWord:
		return binary.BigEndian.Uint32(w64[addr&4:]), cycles, nil
	case amba.SizeHalf:
		return uint32(binary.BigEndian.Uint16(w64[addr&6:])), cycles, nil
	default:
		return uint32(w64[addr&7]), cycles, nil
	}
}

// Write implements amba.Slave: read the full 64-bit word, modify the
// addressed bytes, write it back — two handshakes.
func (a *Adapter) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	var w64 [8]byte
	rc, err := a.port.ReadBurst(addr&^7, w64[:])
	if err != nil {
		return rc, err
	}
	switch size {
	case amba.SizeWord:
		binary.BigEndian.PutUint32(w64[addr&4:], val)
	case amba.SizeHalf:
		binary.BigEndian.PutUint16(w64[addr&6:], uint16(val))
	default:
		w64[addr&7] = byte(val)
	}
	wc, err := a.port.WriteBurst(addr&^7, w64[:])
	if err != nil {
		return rc + wc, err
	}
	a.stats.SingleWrites++
	a.stats.RMWCycles += uint64(rc + wc)
	return rc + wc, nil
}

// ReadBurst implements amba.Slave: the AHB burst is served in chunks of
// BurstWords 32-bit words, each chunk one declared sequential burst on
// the SDRAM side. A chunk that starts and ends on 64-bit boundaries is
// read straight into dst; any other is covered with whole 64-bit words
// in a scratch buffer, and its words copied out.
func (a *Adapter) ReadBurst(addr uint32, dst []byte) (int, error) {
	if a.BurstWords < 1 {
		return 0, fmt.Errorf("ahbadapter: invalid BurstWords %d", a.BurstWords)
	}
	total := 0
	for done := 0; done < len(dst); {
		n := min(len(dst)-done, a.BurstWords*4) // bytes in this chunk
		chunkAddr := addr + uint32(done)
		chunk := dst[done : done+n]
		start := chunkAddr &^ 7
		end := (chunkAddr + uint32(n) + 7) &^ 7
		beats := chunk
		if start != chunkAddr || end != chunkAddr+uint32(n) {
			if cap(a.beats) < int(end-start) {
				a.beats = make([]byte, end-start)
			}
			beats = a.beats[:end-start]
		}
		cycles, err := a.port.ReadBurst(start, beats)
		total += cycles
		if err != nil {
			return total, err
		}
		a.stats.BurstChunks++
		a.stats.WastedWords += uint64(len(beats)-n) / 4
		if len(beats) != n {
			copy(chunk, beats[chunkAddr-start:])
		}
		done += n
	}
	return total, nil
}
