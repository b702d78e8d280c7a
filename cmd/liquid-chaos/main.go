// liquid-chaos is a deterministic UDP fault relay for the §2.6 control
// plane: put it between liquidctl (or any client) and a liquid-server,
// and it drops, duplicates, reorders, truncates and delays control
// packets with the simulated fabric's fault engine (sim.Relay) — the
// Internet, bottled. With a pinned -seed the injected fault sequence
// is reproducible, so a soak failure can be replayed exactly.
//
// Usage:
//
//	liquid-chaos -listen 127.0.0.1:5002 -target 127.0.0.1:5001 \
//	    [-seed 1] [-drop 0.2] [-dup 0.05] [-reorder 0.1] [-truncate 0.01] \
//	    [-latency 1ms -jitter 5ms] \
//	    [-script 'up:load@3=drop,down:start=dup,down:result@1=delay:50ms'] \
//	    [-metrics-addr 127.0.0.1:9091]
//
// The fault flags apply to both directions unless overridden per
// direction (-up-drop, -down-latency, and so on for every one). A
// reordered datagram rides behind the next one on its link. -script
// adds rules that pin faults to exact packets (see sim.ParseScript for
// the grammar). With -metrics-addr the relay exposes its fault counters
// at /metrics and /statusz, plus /debug/traces: when a packet carrying
// a v4 trace id is hit by a fault, the relay annotates the fault into
// that trace (source "chaos"), so a merged timeline shows exactly which
// datagram the network ate (-trace=false disables the annotations).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"liquidarch/internal/cliutil"
	"liquidarch/internal/metrics"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// config is what the command line asks for.
type config struct {
	listen, target, metricsAddr string
	seed                        int64
	trace                       bool
	up, down                    sim.LinkParams
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
	fmt.Printf("liquid-chaos: seed=%d up=%+v down=%+v\n", cfg.seed, cfg.up, cfg.down)
	reg := metrics.NewRegistry()
	var col *tracing.Collector
	if cfg.trace {
		col = tracing.New("chaos")
		cfg.up.Tracer, cfg.down.Tracer = col, col
	}
	relay, err := sim.NewRelay(cfg.listen, cfg.target, cfg.seed, cfg.up, cfg.down, reg)
	if err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			cliutil.Fatalf("liquid-chaos: metrics listener: %v", err)
		}
		handler := metrics.NewHTTPHandler(reg, nil)
		if col != nil {
			handler = tracing.NewDebugHandler(handler, nil, nil, col)
		}
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				log.Printf("liquid-chaos: metrics server: %v", err)
			}
		}()
		fmt.Printf("liquid-chaos: telemetry on http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("liquid-chaos: %s → %s\n", relay.Addr(), cfg.target)
	if err := relay.Serve(); err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
}

// parseArgs reads the flags. A per-direction fault flag overrides the
// symmetric one whatever their order; an unset one leaves it in force.
func parseArgs(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("liquid-chaos", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:5002", "UDP address clients connect to")
	fs.StringVar(&c.target, "target", "127.0.0.1:5001", "liquid-server address to relay to")
	fs.Int64Var(&c.seed, "seed", 1, "fault-sequence seed (pin it to replay a soak)")
	script := fs.String("script", "", "rules pinning faults to packets, e.g. 'up:load@3=drop,down:start=dup'")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "HTTP address for /metrics and /statusz (empty = disabled)")
	fs.BoolVar(&c.trace, "trace", true, "annotate injected faults into the traces of v4 packets they hit")
	var both, up, down sim.LinkParams
	faultFlags(fs, "", "both directions", &both)
	faultFlags(fs, "up-", "client→server only", &up)
	faultFlags(fs, "down-", "server→client only", &down)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// Start both directions from the symmetric values, then replay the
	// per-direction flags that were given.
	dirs := flag.NewFlagSet("", flag.ContinueOnError)
	faultFlags(dirs, "up-", "", &c.up)
	faultFlags(dirs, "down-", "", &c.down)
	c.up, c.down = both, both
	fs.Visit(func(f *flag.Flag) {
		if dirs.Lookup(f.Name) != nil {
			dirs.Set(f.Name, f.Value.String()) //nolint:errcheck // the value parsed once already
		}
	})

	rules, err := sim.ParseScript(*script)
	if err != nil {
		return nil, err
	}
	c.up.Rules, c.down.Rules = rules, rules
	return c, nil
}

// faultFlags registers one direction's fault flags into p.
func faultFlags(fs *flag.FlagSet, prefix, scope string, p *sim.LinkParams) {
	fs.Float64Var(&p.Drop, prefix+"drop", 0, "drop probability, "+scope)
	fs.Float64Var(&p.Dup, prefix+"dup", 0, "duplicate probability, "+scope)
	fs.Float64Var(&p.Reorder, prefix+"reorder", 0, "reorder probability, "+scope)
	fs.Float64Var(&p.Truncate, prefix+"truncate", 0, "truncate probability, "+scope)
	fs.DurationVar(&p.Latency, prefix+"latency", 0, "delay of every packet, "+scope)
	fs.DurationVar(&p.Jitter, prefix+"jitter", 0, "extra random delay in [0, jitter), "+scope)
}
