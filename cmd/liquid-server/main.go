// liquid-server is the Reconfiguration Server daemon of Fig. 1: it
// instantiates a liquid-architecture FPX node and serves the §2.6
// control protocol (status / load / start / read memory, plus the
// liquid reconfigure/get-config extensions) over UDP.
//
// Usage:
//
//	liquid-server -listen 127.0.0.1:5001 [-boards N] [-cache-dir DIR] [-metrics-addr 127.0.0.1:9090] [-dcache 4096 ...] [-v]
//
// With -boards N the node hosts N independent boards (platforms) behind
// one UDP socket, routed by the board byte of the v4 control header
// (the paper's v1 header reaches board 0; select a board with
// `liquidctl -board N`). Each board executes asynchronously on its own
// worker, so a long run on one never delays control traffic to another.
// All boards share one reconfiguration manager: concurrent reconfigure
// requests for the same configuration coalesce onto a single synthesis
// (bounded by -synth-workers), and with -cache-dir the bitfile cache is
// backed by a persistent content-addressed store — every synthesis is
// written through, and a restarted server warm-loads the directory so
// previously visited configurations swap in milliseconds instead of
// the modelled tool hours.
//
// With -metrics-addr set, an HTTP listener additionally serves
// /metrics (Prometheus text), /statusz (JSON snapshot + recent events)
// and /debug/pprof, plus the tracing surface: /debug/traces (Chrome
// trace-event JSON of recent exchanges), /debug/events?n=K (newest
// events, plain text) and /debug/flightrecord (black-box snapshot).
// Node-wide socket/queue telemetry lives on board 0's registry. The
// same snapshot is available in-band over UDP via `liquidctl stats`.
//
// Exchange tracing is on by default (-trace=false disables); the
// flight recorder dumps the last traces + events to a timestamped
// file in -flightrec-dir on any CmdError, on SIGQUIT, and on each
// /debug/flightrecord hit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"liquidarch/internal/cliutil"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/metrics"
	"liquidarch/internal/metrics/eventlog"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/server"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

func main() {
	fs := flag.NewFlagSet("liquid-server", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:5001", "UDP address to serve")
	boards := fs.Int("boards", 1, "number of boards (platforms) this node hosts")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics, /statusz and pprof (empty = disabled)")
	verbose := fs.Bool("v", false, "log each handled request")
	uart := fs.Bool("uart", true, "print the processor's UART output to stdout")
	cacheDir := fs.String("cache-dir", "", "back the reconfiguration cache with a persistent store in this directory")
	synthWorkers := fs.Int("synth-workers", 0, "bound on concurrent synthesis jobs (0 = GOMAXPROCS)")
	trace := fs.Bool("trace", true, "record per-exchange span traces (fetch via liquidctl trace or /debug/traces)")
	flightDir := fs.String("flightrec-dir", ".", "directory for flight-recorder dump files")
	buildCfg := cliutil.ConfigFlags(fs)
	fs.Parse(os.Args[1:])

	cfg, err := buildCfg()
	if err != nil {
		cliutil.Fatalf("liquid-server: %v", err)
	}
	if *boards < 1 {
		cliutil.Fatalf("liquid-server: -boards must be at least 1")
	}
	// One reconfiguration manager serves the whole node: every board's
	// requests dedup onto its synthesis pool, and one cache (optionally
	// backed by -cache-dir's write-through persistent store) covers all
	// of them.
	mgr := reconfig.NewManagerWorkers(
		reconfig.NewCache(0), synth.Options{BitstreamBytes: 65536}, *synthWorkers)
	if *cacheDir != "" {
		if err := mgr.Cache().SetDir(*cacheDir); err != nil {
			cliutil.Fatalf("liquid-server: %v", err)
		}
		if err := mgr.Cache().Load(*cacheDir); err != nil {
			log.Printf("liquid-server: cache load: %v", err)
		}
	}
	// One liquid system per board, each with its own node IP (10.0.0.2,
	// 10.0.0.3, ...) as the FPX cluster of Fig. 1 would be addressed.
	systems := make([]*core.System, *boards)
	platforms := make([]*fpx.Platform, *boards)
	for i := range systems {
		opts := core.Options{
			Manager: mgr,
			IP:      [4]byte{10, 0, 0, byte(2 + i)},
		}
		if *uart && i == 0 {
			opts.UARTOut = os.Stdout // board 0 only; others would interleave
		}
		sys, err := core.New(cfg, opts)
		if err != nil {
			cliutil.Fatalf("liquid-server: board %d: %v", i, err)
		}
		systems[i] = sys
		platforms[i] = sys.Platform()
	}
	sys := systems[0]

	srv, err := server.NewNode(*listen, platforms...)
	if err != nil {
		cliutil.Fatalf("liquid-server: %v", err)
	}
	if *verbose {
		srv.Events().Mirror = log.Printf
	} else {
		srv.Events().MinLevel = eventlog.Info
	}
	var col *tracing.Collector
	var fr *tracing.FlightRecorder
	if *trace {
		col = tracing.New("server")
		srv.EnableTracing(col)
		fr = &tracing.FlightRecorder{
			Collectors: []*tracing.Collector{col},
			Events:     srv.Events(),
			Dir:        *flightDir,
		}
		srv.SetFlightRecorder(fr)
		// SIGQUIT dumps the black box (and keeps the default
		// kill-with-stacks behavior out of the way).
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGQUIT)
		go func() {
			for range sigc {
				if path, err := fr.Dump("sigquit"); err != nil {
					log.Printf("liquid-server: flight dump: %v", err)
				} else if path != "" {
					log.Printf("liquid-server: flight dump written to %s", path)
				}
			}
		}()
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			cliutil.Fatalf("liquid-server: metrics listener: %v", err)
		}
		handler := metrics.NewHTTPHandler(sys.Metrics(), sys.Events())
		if col != nil {
			handler = tracing.NewDebugHandler(handler, fr, srv.Events(), col)
		}
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				log.Printf("liquid-server: metrics server: %v", err)
			}
		}()
		fmt.Printf("liquid-server: telemetry on http://%s/metrics (also /statusz, /debug/pprof, /debug/traces)\n", ln.Addr())
	}
	util := sys.ActiveImage().Util
	fmt.Printf("liquid-server: %s on %s (%d board(s))\n", synth.ConfigKey(cfg), srv.Addr(), srv.Boards())
	if *cacheDir != "" {
		cs := mgr.Cache().Stats()
		fmt.Printf("liquid-server: cache store %s (%d image(s) warm-loaded, %d skipped)\n",
			*cacheDir, cs.PersistLoaded, cs.PersistSkipped)
	}
	fmt.Printf("liquid-server: image %d slices, %d BlockRAMs, %.1f MHz\n",
		util.Slices, util.BlockRAMs, util.FMaxMHz)
	if err := srv.Serve(); err != nil {
		cliutil.Fatalf("liquid-server: %v", err)
	}
}
