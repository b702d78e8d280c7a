// liquidctl is the control client of Fig. 4: it talks the §2.6 UDP
// protocol to a liquid-server (or directly to an FPX node).
//
// Usage:
//
//	liquidctl -server HOST:PORT status
//	liquidctl -server HOST:PORT load   -file prog.bin [-addr 0x40001000]
//	liquidctl -server HOST:PORT start  [-entry 0x40001000] [-budget N] [-wait=false]
//	liquidctl -server HOST:PORT result     # collect a started run's report
//	liquidctl -server HOST:PORT readmem -addr 0x40001000 -len 64 [-out f]
//	liquidctl -server HOST:PORT writemem -addr 0x40002000 -file data.bin
//	liquidctl -server HOST:PORT run    -c prog.c | -s prog.s  [-mac]
//	liquidctl -server HOST:PORT reconfig -spec '{"dcache_bytes":8192}' [-wait=false]
//	liquidctl -server HOST:PORT reconfig               # poll reconfiguration status
//	liquidctl -server HOST:PORT prewarm -spec '[{"dcache_bytes":2048},{"dcache_bytes":8192}]'
//	liquidctl -server HOST:PORT getconfig
//	liquidctl -server HOST:PORT stats      # telemetry snapshot (JSON)
//	liquidctl -server HOST:PORT traces     # recent exchange traces (Chrome JSON)
//
// Every verb accepts -board N to address a board other than 0 on a
// multi-board node (liquid-server -boards), plus retry knobs for lossy
// networks: -timeout, -max-timeout, -retries, -backoff, -jitter and
// -wait-timeout (zero values keep the client defaults). Loads keep a
// sliding window of chunks in flight (-window, default 16; 1 restores
// stop-and-wait), and result and reconfigure waits are parked on the
// server for -wait-hold (default 500ms) so completion is reported at
// network latency.
//
// Every verb also accepts -trace: the invocation mints one 64-bit
// trace id, stamps it on every datagram (v4 header), records the
// client's own spans (each exchange, attempt, retry and backoff), then
// pulls the server's spans for the same id over CmdTraces and writes
// the merged timeline as Chrome trace-event JSON to -trace-out
// (default liquidctl-trace.json; load it in chrome://tracing or
// Perfetto).
// start is asynchronous on
// the wire: it acks as soon as the board begins executing, then (with
// -wait, the default) waits for completion and prints the report;
// with -wait=false it returns immediately and `liquidctl result`
// collects the report later (status shows the live cycle counter in
// the meantime).
//
// reconfig is asynchronous the same way: the server acks with the
// ticket state the instant the request is registered (a cache hit
// applies inside the ack), then (with -wait, the default) the client
// waits — held on the server — and prints the final
// state; with -wait=false it returns after the ack and a later bare
// `liquidctl reconfig` (no -spec) polls the state. reconfigure is the
// legacy blocking spelling of `reconfig -wait`. prewarm queues a list
// of configurations on the server's synthesis pool without swapping
// any of them, populating the bitfile cache ahead of use.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"liquidarch/internal/client"
	"liquidarch/internal/cliutil"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

func main() {
	fs := flag.NewFlagSet("liquidctl", flag.ExitOnError)
	serverAddr := fs.String("server", "127.0.0.1:5001", "liquid-server address")
	addr := fs.String("addr", "", "memory address (hex or decimal)")
	length := fs.Int("len", 4, "byte count for readmem")
	file := fs.String("file", "", "input file")
	out := fs.String("out", "", "output file (default stdout)")
	entry := fs.String("entry", "0", "entry address (0 = last load)")
	budget := fs.Uint64("budget", 0, "cycle budget (0 = default)")
	board := fs.Uint("board", 0, "board number on a multi-board node")
	wait := fs.Bool("wait", true, "start: wait until the run completes (false = return after the ack)")
	cSrc := fs.String("c", "", "C source to compile and run")
	sSrc := fs.String("s", "", "assembly source to build and run")
	mac := fs.Bool("mac", false, "allow the __mac builtin when compiling")
	spec := fs.String("spec", "", "JSON configuration spec for reconfigure")
	timeout := fs.Duration("timeout", 0, "per-attempt response timeout (0 = client default)")
	maxTimeout := fs.Duration("max-timeout", 0, "backoff cap on the per-attempt timeout (0 = client default)")
	retries := fs.Int("retries", -1, "retransmissions per exchange after the first attempt (-1 = client default)")
	backoff := fs.Float64("backoff", 0, "timeout growth factor between attempts (0 = client default)")
	jitter := fs.Float64("jitter", 0, "± randomisation applied to each backoff wait (0 = client default, negative = none)")
	waitTimeout := fs.Duration("wait-timeout", 0, "overall budget for waiting on a run result (0 = client default)")
	window := fs.Int("window", 0, "load chunks kept in flight (0 = client default, 1 = stop-and-wait)")
	waitHold := fs.Duration("wait-hold", 0, "server-side hold per result or reconfigure wait (0 = client default)")
	traceOn := fs.Bool("trace", false, "trace this invocation end-to-end and write a Chrome trace-event timeline")
	traceOut := fs.String("trace-out", "liquidctl-trace.json", "output file for the -trace timeline")

	if len(os.Args) < 2 {
		cliutil.Fatalf("liquidctl: no command; see source header for usage")
	}
	// Accept flags before or after the verb. Only known command words
	// are taken as the verb, so flag values are never mistaken for it.
	verbs := map[string]bool{
		"status": true, "load": true, "start": true, "result": true,
		"readmem": true, "writemem": true, "run": true,
		"reconfigure": true, "reconfig": true, "prewarm": true,
		"getconfig": true, "trace": true,
		"stats": true, "traces": true,
	}
	args := os.Args[1:]
	verb := ""
	var rest []string
	for _, a := range args {
		if verb == "" && verbs[a] {
			verb = a
			continue
		}
		rest = append(rest, a)
	}
	fs.Parse(rest)
	if verb == "" {
		cliutil.Fatalf("liquidctl: no command given")
	}

	c, err := client.Dial(*serverAddr)
	if err != nil {
		cliutil.Fatalf("liquidctl: %v", err)
	}
	defer c.Close()
	if *board > 255 {
		cliutil.Fatalf("liquidctl: board %d out of range (0..255)", *board)
	}
	c.Board = uint8(*board)
	if *timeout > 0 {
		c.Timeout = *timeout
	}
	if *maxTimeout > 0 {
		c.MaxTimeout = *maxTimeout
	}
	if *retries >= 0 {
		c.Retries = *retries
	}
	if *backoff > 0 {
		c.BackoffFactor = *backoff
	}
	if *jitter != 0 {
		c.Jitter = *jitter
	}
	if *waitTimeout > 0 {
		c.WaitTimeout = *waitTimeout
	}
	if *window > 0 {
		c.Window = *window
	}
	if *waitHold > 0 {
		c.WaitHold = *waitHold
	}
	if *traceOn {
		col := tracing.New("client")
		c.Tracer = col
		c.TraceID = col.NewTraceID()
		// The deferred write runs after the verb completes (it is
		// skipped when a verb exits through Fatalf).
		defer writeTraceTimeline(c, col, *traceOut)
	}

	switch verb {
	case "status":
		st, err := c.Status()
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Printf("state: %v\n", leon.State(st.State))
		fmt.Printf("boot ok: %v\n", st.BootOK)
		if leon.State(st.State) == leon.StateRunning {
			fmt.Printf("run in flight: %d cycles so far\n", st.CurCycles)
		}
		if st.LoadedAddr != 0 {
			fmt.Printf("loaded at: %#x\n", st.LoadedAddr)
		}
		if st.Last.Cycles > 0 || st.Last.Status != netproto.StatusOK {
			fmt.Print("last ")
			printReport(st.Last)
		}

	case "load":
		data, err := cliutil.ReadInput(*file)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		a := parseAddrOr(*addr, leon.DefaultLoadAddr)
		if err := c.LoadProgram(a, data); err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Printf("loaded %d bytes at %#x\n", len(data), a)

	case "start":
		e := parseAddrOr(*entry, 0)
		if !*wait {
			if err := c.StartAsync(e, *budget); err != nil {
				cliutil.Fatalf("liquidctl: %v", err)
			}
			fmt.Println("started (poll with `liquidctl status`, collect with `liquidctl result`)")
			return
		}
		rep, err := c.Start(e, *budget)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		printReport(rep)

	case "result":
		rep, err := c.WaitResult()
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		printReport(rep)

	case "readmem":
		a := parseAddrOr(*addr, 0)
		data, err := c.ReadMemory(a, *length)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		if *out != "" {
			if err := cliutil.WriteOutput(*out, data); err != nil {
				cliutil.Fatalf("liquidctl: %v", err)
			}
			return
		}
		for i := 0; i < len(data); i += 16 {
			j := i + 16
			if j > len(data) {
				j = len(data)
			}
			fmt.Printf("%08x  % x\n", a+uint32(i), data[i:j])
		}

	case "writemem":
		data, err := cliutil.ReadInput(*file)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		a := parseAddrOr(*addr, 0)
		if err := c.WriteMemory(a, data); err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Printf("wrote %d bytes at %#x\n", len(data), a)

	case "run":
		img := buildImage(*cSrc, *sSrc, *mac)
		rep, data, err := c.RunProgram(img.Origin, img.Code, img.Entry, img.ExitValueAddr(), 4)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		printReport(rep)
		if len(data) == 4 {
			v := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
			fmt.Printf("exit value: %d (%#x)\n", v, v)
		}

	case "reconfigure":
		if *spec == "" {
			cliutil.Fatalf("liquidctl: reconfigure needs -spec")
		}
		if err := c.Reconfigure([]byte(*spec)); err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Println("reconfigured")

	case "reconfig":
		if *spec == "" {
			// No spec: poll the state of the reconfiguration in flight
			// (or the last one's outcome).
			st, err := c.ReconfigStatus()
			if err != nil {
				cliutil.Fatalf("liquidctl: %v", err)
			}
			printReconfigStatus(st)
			return
		}
		st, err := c.ReconfigureAsync([]byte(*spec))
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		printReconfigStatus(st)
		if st.Terminal() || !*wait {
			if !st.Terminal() {
				fmt.Println("(poll with `liquidctl reconfig`, or wait with `liquidctl reconfig -spec ... -wait`)")
			}
			return
		}
		final, err := c.WaitReconfigure(context.Background())
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		printReconfigStatus(final)
		if final.State != netproto.ReconfigApplied {
			os.Exit(1)
		}

	case "prewarm":
		if *spec == "" {
			cliutil.Fatalf("liquidctl: prewarm needs -spec with a JSON array of configuration specs")
		}
		var specs []json.RawMessage
		if err := json.Unmarshal([]byte(*spec), &specs); err != nil {
			// A single bare spec object is accepted too.
			var one json.RawMessage
			if err2 := json.Unmarshal([]byte(*spec), &one); err2 != nil {
				cliutil.Fatalf("liquidctl: prewarm spec: %v", err)
			}
			specs = []json.RawMessage{one}
		}
		queued, err := c.Prewarm(specs)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Printf("prewarm: %d configuration(s) queued on the synthesis pool\n", queued)

	case "getconfig":
		blob, err := c.GetConfig()
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Println(string(blob))

	case "trace":
		blob, err := c.TraceReport()
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		fmt.Println(string(blob))

	case "traces":
		tds, err := c.Traces(0)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		data, err := tracing.ChromeJSON(tds)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		if *out != "" {
			if err := cliutil.WriteOutput(*out, data); err != nil {
				cliutil.Fatalf("liquidctl: %v", err)
			}
			return
		}
		fmt.Println(string(data))

	case "stats":
		blob, err := c.Stats()
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, blob, "", "  "); err != nil {
			fmt.Println(string(blob)) // not JSON? print raw
			return
		}
		fmt.Println(pretty.String())

	default:
		cliutil.Fatalf("liquidctl: unknown command %q", verb)
	}
}

// writeTraceTimeline pulls the server's spans for this invocation's
// trace id, merges them with the client's own, and writes the Chrome
// trace-event timeline.
func writeTraceTimeline(c *client.Client, col *tracing.Collector, out string) {
	serverSpans, err := c.Traces(c.TraceID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liquidctl: server trace fetch: %v (writing client spans only)\n", err)
	}
	clientSpans := col.TakeTrace(c.TraceID)
	data, err := tracing.ChromeJSON(clientSpans, serverSpans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liquidctl: trace export: %v\n", err)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "liquidctl: trace write: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "liquidctl: trace %016x written to %s (open in chrome://tracing)\n", c.TraceID, out)
}

func buildImage(cSrc, sSrc string, mac bool) *link.Image {
	var asmText string
	switch {
	case cSrc != "":
		src, err := cliutil.ReadInput(cSrc)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		asmText, err = lcc.Compile(string(src), lcc.Options{MAC: mac})
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
	case sSrc != "":
		src, err := cliutil.ReadInput(sSrc)
		if err != nil {
			cliutil.Fatalf("liquidctl: %v", err)
		}
		asmText = string(src)
	default:
		cliutil.Fatalf("liquidctl: run needs -c or -s")
	}
	img, err := link.Build(asmText, link.Options{})
	if err != nil {
		cliutil.Fatalf("liquidctl: %v", err)
	}
	return img
}

// printReconfigStatus renders one reconfiguration status line.
func printReconfigStatus(st netproto.ReconfigStatusResp) {
	switch {
	case st.State == netproto.ReconfigNone:
		fmt.Println("reconfig: none in flight")
	case st.State == netproto.ReconfigFailed:
		fmt.Printf("reconfig: FAILED: %s\n", st.Msg)
	case st.State == netproto.ReconfigApplied:
		how := "synthesized"
		if st.CacheHit {
			how = "cache hit"
		}
		if st.Partial {
			how += ", partial swap"
		}
		fmt.Printf("reconfig: applied (%s)\n", how)
	default:
		fmt.Printf("reconfig: %s\n", netproto.ReconfigStateName(st.State))
	}
}

func printReport(rep netproto.RunReport) {
	switch rep.Status {
	case netproto.StatusOK:
		fmt.Printf("run: ok, %d cycles, %d instructions\n", rep.Cycles, rep.Instructions)
	case netproto.StatusFault:
		fmt.Printf("run: FAULT tt=%#02x at pc=%#08x after %d cycles\n", rep.TT, rep.FaultPC, rep.Cycles)
	default:
		fmt.Printf("run: status %d\n", rep.Status)
	}
}

func parseAddrOr(s string, def uint32) uint32 {
	if s == "" || s == "0" {
		return def
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		cliutil.Fatalf("liquidctl: bad address %q: %v", s, err)
	}
	return uint32(v)
}
