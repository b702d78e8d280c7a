// Remote demonstrates the paper's headline capability: the platform
// "can be instantiated, configured, and executed via the Internet".
// It starts a reconfiguration server on loopback UDP, then drives it
// with the control client: status, multi-packet program load, start,
// read memory — and finally reconfigures the processor over the wire
// and re-runs the same binary on the new microarchitecture.
package main

import (
	"fmt"
	"log"

	"liquidarch/internal/client"
	"liquidarch/internal/core"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/server"
	"liquidarch/internal/synth"
)

const program = `
int count[1024];
int result;
int main() {
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 262144; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    result = x + 42;
    return result;
}`

func main() {
	// Server side: a liquid node with a deliberately small data cache.
	cfg := leon.DefaultConfig()
	cfg.DCache.SizeBytes = 1 << 10
	sys, err := core.New(cfg, core.Options{Synth: synth.Options{BitstreamBytes: 4096}})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.NewNode("127.0.0.1:0", sys.Platform())
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("reconfiguration server on %s\n", srv.Addr())

	// Client side: the paper's Fig. 4 control software.
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	st, err := c.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LEON status: %v (boot ok: %v)\n", leon.State(st.State), st.BootOK)

	// Compile locally, upload in sequence-numbered UDP chunks.
	asmText, err := lcc.Compile(program, lcc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	img, err := link.Build(asmText, link.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.LoadProgram(img.Origin, img.Code); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d bytes at %#x over UDP\n", len(img.Code), img.Origin)

	rep, err := c.Start(img.Entry, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run on 1KB D$:  %d cycles\n", rep.Cycles)

	// Liquid step: swap the data cache to 8 KB over the network.
	if err := c.Reconfigure([]byte(`{"dcache_bytes": 8192}`)); err != nil {
		log.Fatal(err)
	}
	blob, err := c.GetConfig()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfigured; active config: %s\n", blob)

	// The board memories survived the swap: start the SAME binary
	// without reloading it.
	rep2, err := c.Start(img.Entry, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run on 8KB D$:  %d cycles (%.2fx faster)\n",
		rep2.Cycles, float64(rep.Cycles)/float64(rep2.Cycles))

	// Read the result, as the paper's Read Memory command does.
	data, err := c.ReadMemory(img.ExitValueAddr(), 4)
	if err != nil {
		log.Fatal(err)
	}
	v := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
	fmt.Printf("result read from %#x: %d\n", img.ExitValueAddr(), v)
}
