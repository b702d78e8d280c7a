// Package cliutil holds the flag plumbing shared by the liquid-*
// command-line tools: configuration flags, file helpers and table
// printing.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
	"liquidarch/internal/leon"
)

// ConfigFlags registers processor-configuration flags on fs and
// returns a builder to call after parsing.
func ConfigFlags(fs *flag.FlagSet) func() (leon.Config, error) {
	dcache := fs.Int("dcache", 4096, "data cache size in bytes")
	dline := fs.Int("dline", 32, "data cache line size in bytes")
	dassoc := fs.Int("dassoc", 1, "data cache associativity")
	dwb := fs.Bool("dwriteback", false, "data cache write-back (default write-through)")
	icache := fs.Int("icache", 1024, "instruction cache size in bytes")
	iline := fs.Int("iline", 32, "instruction cache line size in bytes")
	windows := fs.Int("windows", 8, "register window count")
	mac := fs.Bool("mac", false, "enable the Liquid MAC instruction unit")
	muldiv := fs.Bool("muldiv", true, "enable hardware multiply/divide")
	depth := fs.Int("depth", 5, "pipeline depth (3-8)")
	burst := fs.Int("burst", 4, "SDRAM adapter read burst in 32-bit words")

	return func() (leon.Config, error) {
		cfg := leon.DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: *dcache, LineBytes: *dline, Assoc: *dassoc}
		if *dwb {
			cfg.DCache.Write = cache.WriteBack
		}
		cfg.ICache = cache.Config{SizeBytes: *icache, LineBytes: *iline, Assoc: 1}
		cfg.CPU.NWindows = *windows
		cfg.CPU.MAC = *mac
		cfg.CPU.MulDiv = *muldiv
		cfg.CPU.PipelineDepth = *depth
		cfg.CPU.Timing = cpu.TimingForDepth(*depth)
		cfg.BurstWords = *burst
		if err := cfg.Validate(); err != nil {
			return leon.Config{}, err
		}
		return cfg, nil
	}
}

// ReadInput reads a file, or stdin when path is "-" or empty.
func ReadInput(path string) ([]byte, error) {
	if path == "" || path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// WriteOutput writes to a file, or stdout when path is "-" or empty.
func WriteOutput(path string, data []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Fatalf prints an error and exits non-zero.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// Table writes rows as an aligned table; the first row is the header,
// underlined.
func Table(w io.Writer, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
		if i == 0 {
			under := make([]string, len(row))
			for j, h := range row {
				under[j] = strings.Repeat("-", len(h))
			}
			fmt.Fprintln(tw, strings.Join(under, "\t"))
		}
	}
	tw.Flush()
}
