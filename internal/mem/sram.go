// Package mem models the Liquid processor system's memories: the FPX
// on-board SRAM the LEON executes user code from (§3.1), the SDRAM
// device, and the FPX multi-module SDRAM controller of [9] that the
// AHB adapter of §3.2 talks to.
//
// All memories are big-endian, matching the SPARC V8 byte order.
package mem

import (
	"encoding/binary"
	"fmt"

	"liquidarch/internal/amba"
)

// SRAM is the FPX zero-bus-turnaround SRAM: a flat byte array with a
// fixed per-access wait-state count. It implements amba.Slave for the
// processor side and exposes Peek/Poke for the user-side port that the
// leon_ctrl circuitry uses to load programs while the CPU is
// disconnected (§3.1).
type SRAM struct {
	data []byte

	// WaitStates is charged on every single access.
	WaitStates int
	// BurstWait is charged per word after the first during a burst.
	BurstWait int
}

// NewSRAM returns a zeroed SRAM of the given size with FPX-like timing
// (2 wait states per random access — the LEON2 default SRAM memory
// configuration — and 2-cycle burst beats through the board-level
// memory bus).
func NewSRAM(size int) *SRAM {
	return &SRAM{data: make([]byte, size), WaitStates: 2, BurstWait: 2}
}

// Size returns the capacity in bytes.
func (s *SRAM) Size() int { return len(s.data) }

func (s *SRAM) check(addr uint32, n uint32) error {
	if uint64(addr)+uint64(n) > uint64(len(s.data)) {
		return &amba.BusError{Addr: addr}
	}
	return nil
}

// Read implements amba.Slave.
func (s *SRAM) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if err := s.check(addr, uint32(size)); err != nil {
		return 0, 0, err
	}
	switch size {
	case amba.SizeWord:
		return binary.BigEndian.Uint32(s.data[addr:]), s.WaitStates, nil
	case amba.SizeHalf:
		return uint32(binary.BigEndian.Uint16(s.data[addr:])), s.WaitStates, nil
	default:
		return uint32(s.data[addr]), s.WaitStates, nil
	}
}

// Write implements amba.Slave.
func (s *SRAM) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	if err := s.check(addr, uint32(size)); err != nil {
		return 0, err
	}
	switch size {
	case amba.SizeWord:
		binary.BigEndian.PutUint32(s.data[addr:], val)
	case amba.SizeHalf:
		binary.BigEndian.PutUint16(s.data[addr:], uint16(val))
	default:
		s.data[addr] = byte(val)
	}
	return s.WaitStates, nil
}

// ReadBurst implements amba.Slave with one wait-state setup and
// pipelined beats.
func (s *SRAM) ReadBurst(addr uint32, words []uint32) (int, error) {
	if err := s.check(addr, uint32(len(words))*4); err != nil {
		return 0, err
	}
	for i := range words {
		words[i] = binary.BigEndian.Uint32(s.data[addr+uint32(i)*4:])
	}
	return s.WaitStates + s.BurstWait*len(words), nil
}

// Poke copies p into the SRAM at addr through the user-side port,
// without bus timing. It is the data path of the paper's "programs are
// sent to the FPX via UDP packets, then written directly to main
// memory".
func (s *SRAM) Poke(addr uint32, p []byte) error {
	if err := s.check(addr, uint32(len(p))); err != nil {
		return fmt.Errorf("mem: poke %d bytes at %#x: %w", len(p), addr, err)
	}
	copy(s.data[addr:], p)
	return nil
}

// Peek copies len(p) bytes from the SRAM at addr into p through the
// user-side port.
func (s *SRAM) Peek(addr uint32, p []byte) error {
	if err := s.check(addr, uint32(len(p))); err != nil {
		return fmt.Errorf("mem: peek %d bytes at %#x: %w", len(p), addr, err)
	}
	copy(p, s.data[addr:])
	return nil
}

// Poke32 writes a single big-endian word through the user-side port.
func (s *SRAM) Poke32(addr uint32, v uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return s.Poke(addr, b[:])
}

// Peek32 reads a single big-endian word through the user-side port.
func (s *SRAM) Peek32(addr uint32) (uint32, error) {
	var b [4]byte
	if err := s.Peek(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}
