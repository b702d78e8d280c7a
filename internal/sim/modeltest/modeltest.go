// Package modeltest is the model-based cluster test runner: it drives
// a randomized operation sequence — loads, starts, waits, memory
// traffic, reconfigurations, prewarm sweeps, across boards — against a
// simulated multi-board node behind the in-memory fault fabric, and
// checks every observable against a sequential reference model (the
// same board logic driven directly, with no server, network, or
// faults in between). The network may drop, duplicate, delay, and
// reorder; the *observables* must come out identical. A divergence
// reports the seed and full operation trace, and replaying the seed
// reproduces the run:
//
//	go test ./internal/sim/modeltest -run TestModelReplay -args -seed=N
//
// Everything nondeterministic is derived from one seed: the op
// sequence, the fault schedule (per-link RNGs in sim.Network), and the
// client's retransmission jitter. Real goroutine scheduling still
// varies run to run, so retry *counts* may differ — but the compared
// observables (reports, memory, terminal states) are
// schedule-independent.
package modeltest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/server"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

// modelSynth keeps the modelled ≈1 h synthesis around 3.6 ms of clock
// time so reconfigure ops complete promptly on both timelines.
var modelSynth = synth.Options{BitstreamBytes: 256, TimeScale: 1e-6}

// runBudget bounds every start so that executing garbage (a data image
// started on purpose) terminates deterministically instead of spinning.
const runBudget = 500_000

// Faults is the fault profile applied to both directions of the
// client↔server link.
type Faults struct {
	Drop     float64
	Dup      float64
	Reorder  float64
	Latency  time.Duration
	Jitter   time.Duration
	DupDelay time.Duration
}

// Config parameterizes one model run.
type Config struct {
	Seed int64
	// Ops is the operation count (0 = a seed-derived default).
	Ops int
	// Faults overrides the fault profile (nil = seed-derived).
	Faults *Faults
	// DedupDisabled plants the deliberate protocol bug — the server
	// skips the at-most-once dedup window — to prove the model harness
	// catches it.
	DedupDisabled bool
	// LoadHeavy skews the op mix to loads, reads and status — pure
	// control-plane traffic with no board compute, so the virtual-time
	// schedule (and with it a caught divergence) replays exactly.
	LoadHeavy bool
	// IdleMix skews the op mix to reconfigurations and long poll-loop
	// idles: programs that spin on a never-written mailbox word until
	// the cycle budget expires. A networked run carries a trace summary,
	// whose profile and memory hook keep spin fast-forward off, so both
	// sides step each idle in full; the mix checks that it ends in its
	// budget fault with a cycle count at the budget.
	IdleMix bool
}

// Divergence is a model-reference mismatch: the simulated cluster
// observably disagreed with the sequential model.
type Divergence struct {
	Seed    int64
	OpIndex int
	Op      string
	Got     string // observable from the simulated cluster
	Want    string // observable from the reference model
	Trace   []string
}

func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model divergence at seed %d, op %d: %s\n", d.Seed, d.OpIndex, d.Op)
	fmt.Fprintf(&b, "  sut: %s\n  ref: %s\n", d.Got, d.Want)
	b.WriteString("  op trace:\n")
	for i, op := range d.Trace {
		fmt.Fprintf(&b, "    %3d %s\n", i, op)
	}
	fmt.Fprintf(&b, "  replay: go test ./internal/sim/modeltest -run TestModelReplay -args -seed=%d", d.Seed)
	return b.String()
}

// progSrc is the parameterized deterministic workload: burn iters
// loop iterations, store val at the result word, exit through the ROM
// poll routine.
const progSrc = `
_start:
	set %d, %%g2
loop:
	subcc %%g2, 1, %%g2
	bne loop
	nop
	set %d, %%o0
	set %#x, %%g1
	st %%o0, [%%g1]
	set 0x1000, %%g7
	jmp %%g7
	nop
`

// resultAddr is where the canned programs store their value — well
// above the largest generated image.
const resultAddr = leon.DefaultLoadAddr + 0x10000

// pollSrc is the long-idle workload: the boot ROM's Fig. 5 poll
// pattern relocated into user code, spinning on an uncacheable
// mailbox word that stays zero for the whole run (the fault trap
// type, cleared at start) until the cycle budget expires. The spin is
// side-effect-free over uncached memory, but a networked run's trace
// summary keeps fast-forward off, so it is stepped in full; the budget
// fault and the reported cycle count must match the reference exactly.
const pollSrc = `
_start:
	set %#x, %%g1
poll:
	ld [%%g1], %%g2
	tst %%g2
	be poll
	nop
	set 0x1000, %%g7
	jmp %%g7
	nop
`

// pollFlagAddr is the watched word: the mailbox fault-TT slot, which
// Start zeroes and only a fault would write.
const pollFlagAddr = leon.MailboxFaultTT

// dataBase is where random data images land (they double as runnable
// garbage: starting one is a legal, deterministic fault case).
const dataBase = leon.DefaultLoadAddr + 0x4000

var (
	progOnce sync.Once
	progs    []*asm.Object
	pollProg *asm.Object
	progErr  error
)

// programs assembles the canned program variants once per process.
func programs() ([]*asm.Object, error) {
	progOnce.Do(func() {
		for _, pv := range []struct {
			iters, val int
		}{
			{300, 0x11111111},
			{2500, 0x5a5a00ff},
			{12000, 0x0badf00d},
		} {
			obj, err := asm.AssembleAt(fmt.Sprintf(progSrc, pv.iters, pv.val, resultAddr), leon.DefaultLoadAddr)
			if err != nil {
				progErr = err
				return
			}
			progs = append(progs, obj)
		}
		pollProg, progErr = asm.AssembleAt(fmt.Sprintf(pollSrc, pollFlagAddr), leon.DefaultLoadAddr)
	})
	return progs, progErr
}

// boardSet is one side's boards: core systems sharing a synthesis
// manager, plus their platforms.
type boardSet struct {
	systems []*core.System
	plats   []*fpx.Platform
	manager *reconfig.Manager
}

func newBoardSet(n int, clk sim.Clock) (*boardSet, error) {
	opts := modelSynth
	opts.Clock = clk
	m := reconfig.NewManagerWorkers(reconfig.NewCache(0), opts, 2)
	if err := m.Pregenerate([]leon.Config{leon.DefaultConfig()}); err != nil {
		return nil, err
	}
	bs := &boardSet{manager: m}
	for i := 0; i < n; i++ {
		s, err := core.New(leon.DefaultConfig(), core.Options{
			Synth:   opts,
			Manager: m,
			IP:      [4]byte{10, 0, 0, byte(2 + i)},
			Clock:   clk,
		})
		if err != nil {
			bs.Close()
			return nil, err
		}
		bs.systems = append(bs.systems, s)
		bs.plats = append(bs.plats, s.Platform())
	}
	return bs, nil
}

func (b *boardSet) Close() {
	for _, s := range b.systems {
		s.Close()
	}
}

// idle waits (in real time) until the shared synthesis manager has no
// queued or running tickets, so cache hit/miss outcomes of later ops
// are a pure function of the op sequence.
func (b *boardSet) idle() {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := b.manager.Stats()
		if st.QueueDepth == 0 && st.Inflight == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ref drives one request through a board's platform directly — the
// sequential reference path — and renders the response observable.
func (b *boardSet) ref(board int, cmd uint8, body []byte) (netproto.Packet, error) {
	// A v1 request carries no seq, so the peer (none here) keys no dedup.
	resp, ok := b.plats[board].Handle(fpx.Peer{}, netproto.Packet{Command: cmd, Body: body}.Marshal(), tracing.Ctx{})
	if !ok {
		return netproto.Packet{}, fmt.Errorf("no response to %s", netproto.CommandName(cmd))
	}
	if resp.Command == netproto.CmdError {
		er, err := netproto.ParseErrorResp(resp.Body)
		if err != nil {
			return netproto.Packet{}, err
		}
		return netproto.Packet{}, &client.ServerError{Cmd: cmd, Msg: er.Msg}
	}
	return resp, nil
}

// obsErr normalizes an op error into a comparable observable: server
// rejections compare by message (both sides produce the same one);
// anything else keeps its full text.
func obsErr(err error) string {
	if err == nil {
		return "ok"
	}
	var se *client.ServerError
	if ok := asServerError(err, &se); ok {
		return "server error: " + se.Msg
	}
	return "error: " + err.Error()
}

func asServerError(err error, out **client.ServerError) bool {
	for err != nil {
		if se, ok := err.(*client.ServerError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// harness holds the two worlds one model run compares.
type harness struct {
	cfg   Config
	rng   *rand.Rand
	world *sim.World
	sut   *boardSet
	srv   *server.Server
	cli   *client.Client
	refB  *boardSet
	trace []string
}

const nBoards = 2

// Run executes one model run and returns nil or a *Divergence.
func Run(cfg Config) error {
	if _, err := programs(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := &harness{cfg: cfg, rng: rng}
	h.world = sim.NewWorld(cfg.Seed)
	defer h.world.Close()

	var err error
	if h.sut, err = newBoardSet(nBoards, h.world.Clock); err != nil {
		return err
	}
	defer h.sut.Close()
	if cfg.DedupDisabled {
		for _, p := range h.sut.plats {
			p.DedupDisabled = true
		}
	}
	if h.refB, err = newBoardSet(nBoards, nil); err != nil {
		return err
	}
	defer h.refB.Close()

	pc, err := h.world.Net.Listen("10.77.0.1:9000")
	if err != nil {
		return err
	}
	h.srv, err = server.NewNodeConn(pc, h.world.Clock, h.sut.plats...)
	if err != nil {
		return err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); h.srv.Serve() }()
	defer func() { h.srv.Close(); <-serveDone }()

	conn, err := h.world.Net.Dial(pc.LocalAddr())
	if err != nil {
		return err
	}
	defer conn.Close()

	f := cfg.Faults
	if f == nil {
		f = &Faults{
			Drop:    0.03 + 0.07*rng.Float64(),
			Dup:     0.03 + 0.07*rng.Float64(),
			Reorder: 0.02 + 0.05*rng.Float64(),
			Latency: time.Duration(1+rng.Intn(2)) * time.Millisecond,
			Jitter:  500 * time.Microsecond,
		}
	}
	lp := sim.LinkParams{
		Drop: f.Drop, Dup: f.Dup, Reorder: f.Reorder,
		Latency: f.Latency, Jitter: f.Jitter, DupDelay: f.DupDelay,
	}
	h.world.Net.SetLink(conn.LocalAddr(), pc.LocalAddr(), lp)
	h.world.Net.SetLink(pc.LocalAddr(), conn.LocalAddr(), lp)

	h.cli = client.New(conn, h.world.Clock)
	h.cli.SetSeed(cfg.Seed ^ 0x6a09e667)
	h.cli.Timeout = 50 * time.Millisecond
	h.cli.MaxTimeout = 400 * time.Millisecond
	h.cli.Retries = 8
	h.cli.PollInterval = time.Millisecond
	h.cli.WaitTimeout = 30 * time.Second
	h.cli.WaitHold = 20 * time.Millisecond

	ops := cfg.Ops
	if ops == 0 {
		ops = 12 + rng.Intn(8)
	}
	for i := 0; i < ops; i++ {
		if d := h.step(i); d != nil {
			return d
		}
	}
	return h.finalCheck()
}

func (h *harness) loadHeavy() bool { return h.cfg.LoadHeavy }

// diverge records the mismatch with the full op trace.
func (h *harness) diverge(i int, op, got, want string) *Divergence {
	return &Divergence{
		Seed: h.cfg.Seed, OpIndex: i, Op: op,
		Got: got, Want: want, Trace: h.trace,
	}
}

// step generates and executes one op on both sides. All randomness is
// drawn before execution so the op sequence is a pure function of the
// seed regardless of outcomes.
func (h *harness) step(i int) *Divergence {
	board := h.rng.Intn(nBoards)
	h.cli.Board = uint8(board)

	kind := h.rng.Intn(10)
	if h.loadHeavy() {
		kind = []int{3, 3, 3, 3, 3, 3, 7, 7, 7, 6}[kind]
	} else if h.cfg.IdleMix {
		// Reconfigurations interleaved with budget-length poll-loop
		// idles (kind 10) and enough runs/reads to keep memory moving.
		kind = []int{10, 10, 10, 9, 9, 9, 0, 7, 6, 10}[kind]
	}
	var (
		op        string
		got, want string
	)
	switch {
	case kind == 10: // long poll-loop idle to budget exhaustion
		op = fmt.Sprintf("idle-poll board=%d", board)
		got, want = h.opIdlePoll(board)
	case kind < 3: // canned program: load + start + wait
		ps, _ := programs()
		prog := ps[h.rng.Intn(len(ps))]
		op = fmt.Sprintf("run board=%d prog=%d", board, h.rng.Intn(len(ps)))
		got, want = h.opRun(board, prog)
	case kind < 5: // random data image load
		size := 4 * (1 + h.rng.Intn(700)) // ≤ ~2.8 KiB, a few chunks
		addr := uint32(dataBase + 4*h.rng.Intn(2048))
		img := make([]byte, size)
		h.rng.Read(img)
		op = fmt.Sprintf("load board=%d addr=%#x len=%d", board, addr, size)
		got, want = h.opLoad(board, addr, img)
	case kind < 6: // start whatever was loaded last (possibly garbage)
		op = fmt.Sprintf("start board=%d", board)
		got, want = h.opStart(board)
	case kind < 7:
		op = fmt.Sprintf("status board=%d", board)
		got, want = h.opStatus(board)
	case kind < 8:
		addr := uint32(leon.DefaultLoadAddr + 4*h.rng.Intn(8192))
		n := 1 + h.rng.Intn(2048)
		op = fmt.Sprintf("read board=%d addr=%#x len=%d", board, addr, n)
		got, want = h.opRead(board, addr, n)
	case kind < 9:
		addr := uint32(dataBase + 4*h.rng.Intn(4096))
		data := make([]byte, 1+h.rng.Intn(512))
		h.rng.Read(data)
		op = fmt.Sprintf("write board=%d addr=%#x len=%d", board, addr, len(data))
		got, want = h.opWrite(board, addr, data)
	default:
		dcache := []int{4 << 10, 8 << 10}[h.rng.Intn(2)]
		if h.rng.Intn(4) == 0 {
			op = fmt.Sprintf("prewarm board=%d dcache=%d", board, dcache)
			got, want = h.opPrewarm(board, dcache)
		} else {
			op = fmt.Sprintf("reconfigure board=%d dcache=%d", board, dcache)
			got, want = h.opReconfigure(board, dcache)
		}
	}
	h.trace = append(h.trace, fmt.Sprintf("%s -> sut:%s ref:%s", op, short(got), short(want)))
	if got != want {
		return h.diverge(i, op, got, want)
	}
	return nil
}

// short elides bulky observables (memory dumps) in the op trace; the
// divergence itself always carries the full strings.
func short(s string) string {
	if len(s) <= 64 {
		return s
	}
	return fmt.Sprintf("%s…(%d chars)", s[:48], len(s))
}

// opLoad loads an image on both sides and reports the outcome.
func (h *harness) opLoad(board int, addr uint32, img []byte) (got, want string) {
	got = obsErr(h.cli.LoadProgram(addr, img))

	var refErr error
	for _, ch := range netproto.ChunkImage(addr, img) {
		resp, err := h.refB.ref(board, netproto.CmdLoadProgram, ch.Marshal())
		if err != nil {
			refErr = err
			break
		}
		rep, err := netproto.ParseRunReport(resp.Body)
		if err != nil {
			refErr = err
			break
		}
		if rep.Status != netproto.StatusOK && rep.Status != netproto.StatusPending {
			refErr = fmt.Errorf("load ack status %d", rep.Status)
			break
		}
	}
	want = obsErr(refErr)
	return got, want
}

// opIdlePoll loads the never-satisfied poll loop and runs it into its
// cycle budget on both sides, stepping it in full (see IdleMix). The
// op checks the budget fault and a cycle count at the budget, and both
// have to match the reference exactly.
func (h *harness) opIdlePoll(board int) (got, want string) {
	if _, err := programs(); err != nil {
		return obsErr(err), "ok"
	}
	if g, w := h.opLoad(board, pollProg.Origin, pollProg.Code); g != w {
		return "load:" + g, "load:" + w
	}
	// The reported count excludes the short ROM handoff, so it lands
	// just under the budget — but never far under, unless the run
	// ended before its budget did.
	const cycleFloor = runBudget - 1000
	rep, err := h.cli.Start(0, runBudget)
	switch {
	case err != nil:
		got = obsErr(err)
	case rep.Cycles < cycleFloor:
		// An idle run must spend its whole budget.
		got = fmt.Sprintf("error: idle run reported %d cycles, below its %d budget", rep.Cycles, runBudget)
	default:
		got = fmt.Sprintf("%+v", rep)
	}
	want = h.refRun(board)
	return got, want
}

// opRun loads a canned program and runs it to completion on both
// sides, comparing the full final report.
func (h *harness) opRun(board int, prog *asm.Object) (got, want string) {
	if g, w := h.opLoad(board, prog.Origin, prog.Code); g != w {
		return "load:" + g, "load:" + w
	}
	return h.opStart(board)
}

// opStart starts entry 0 (the last load) with the standard budget and
// waits for the final report on both sides.
func (h *harness) opStart(board int) (got, want string) {
	rep, err := h.cli.Start(0, runBudget)
	if err != nil {
		got = obsErr(err)
	} else {
		got = fmt.Sprintf("%+v", rep)
	}

	want = h.refRun(board)
	return got, want
}

// refRun is the reference model of Start: a start exchange, then
// result polls until the run leaves StatusRunning.
func (h *harness) refRun(board int) string {
	req := netproto.StartReq{Entry: 0, MaxCycles: runBudget}
	resp, err := h.refB.ref(board, netproto.CmdStartLEON, req.Marshal())
	if err != nil {
		return obsErr(err)
	}
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		return obsErr(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.Status == netproto.StatusRunning {
		if time.Now().After(deadline) {
			return "error: reference run never completed"
		}
		time.Sleep(100 * time.Microsecond)
		if resp, err = h.refB.ref(board, netproto.CmdResult, nil); err != nil {
			return obsErr(err)
		}
		if rep, err = netproto.ParseRunReport(resp.Body); err != nil {
			return obsErr(err)
		}
	}
	return fmt.Sprintf("%+v", rep)
}

func (h *harness) opStatus(board int) (got, want string) {
	st, err := h.cli.Status()
	if err != nil {
		got = obsErr(err)
	} else {
		got = fmt.Sprintf("%+v", st)
	}
	resp, err := h.refB.ref(board, netproto.CmdStatus, nil)
	if err != nil {
		return got, obsErr(err)
	}
	rst, err := netproto.ParseStatusResp(resp.Body)
	if err != nil {
		return got, obsErr(err)
	}
	return got, fmt.Sprintf("%+v", rst)
}

func (h *harness) opRead(board int, addr uint32, n int) (got, want string) {
	data, err := h.cli.ReadMemory(addr, n)
	if err != nil {
		got = obsErr(err)
	} else {
		got = fmt.Sprintf("%x", data)
	}
	req := netproto.MemReq{Addr: addr, Length: uint32(n)}
	resp, err := h.refB.ref(board, netproto.CmdReadMemory, req.Marshal())
	if err != nil {
		return got, obsErr(err)
	}
	mr, err := netproto.ParseMemResp(resp.Body)
	if err != nil {
		return got, obsErr(err)
	}
	return got, fmt.Sprintf("%x", mr.Data)
}

func (h *harness) opWrite(board int, addr uint32, data []byte) (got, want string) {
	got = obsErr(h.cli.WriteMemory(addr, data))
	req := netproto.MemReq{Addr: addr, Data: data}
	_, err := h.refB.ref(board, netproto.CmdWriteMemory, req.Marshal())
	return got, obsErr(err)
}

func specFor(dcache int) []byte {
	blob, _ := json.Marshal(core.Spec{DCacheBytes: dcache})
	return blob
}

// opReconfigure reconfigures the board's D-cache on both sides and
// compares the terminal state plus the resulting active configuration.
func (h *harness) opReconfigure(board, dcache int) (got, want string) {
	spec := specFor(dcache)
	err := h.cli.Reconfigure(spec)
	if err != nil {
		got = obsErr(err)
	} else {
		st, serr := h.cli.ReconfigStatus()
		if serr != nil {
			got = obsErr(serr)
		} else {
			cfgBlob, _ := h.cli.GetConfig()
			got = fmt.Sprintf("state=%d hit=%t partial=%t cfg=%x", st.State, st.CacheHit, st.Partial, cfgBlob)
		}
	}
	h.sut.idle()

	want = h.refReconfigure(board, spec)
	h.refB.idle()
	return got, want
}

// refReconfigure is the reference model of a blocking reconfigure:
// the async exchange, then status polls to the terminal state.
func (h *harness) refReconfigure(board int, spec []byte) string {
	resp, err := h.refB.ref(board, netproto.CmdReconfigure, spec)
	if err != nil {
		return obsErr(err)
	}
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		return obsErr(err)
	}
	st := netproto.ReconfigAckInfo(rep)
	deadline := time.Now().Add(10 * time.Second)
	for !st.Terminal() && st.State != netproto.ReconfigNone {
		if time.Now().After(deadline) {
			return "error: reference reconfigure never completed"
		}
		time.Sleep(200 * time.Microsecond)
		sresp, err := h.refB.ref(board, netproto.CmdReconfigStatus, nil)
		if err != nil {
			return obsErr(err)
		}
		if st, err = netproto.ParseReconfigStatusResp(sresp.Body); err != nil {
			return obsErr(err)
		}
	}
	cresp, err := h.refB.ref(board, netproto.CmdGetConfig, nil)
	if err != nil {
		return obsErr(err)
	}
	return fmt.Sprintf("state=%d hit=%t partial=%t cfg=%x", st.State, st.CacheHit, st.Partial, cresp.Body)
}

// opPrewarm queues a synthesis sweep on both sides, waits for both
// pools to drain, and compares the accepted-ticket count.
func (h *harness) opPrewarm(board, dcache int) (got, want string) {
	specs := []json.RawMessage{json.RawMessage(specFor(dcache))}
	n, err := h.cli.Prewarm(specs)
	if err != nil {
		got = obsErr(err)
	} else {
		got = fmt.Sprintf("queued=%d", n)
	}
	h.sut.idle()

	body, _ := json.Marshal(struct {
		Prewarm []json.RawMessage `json:"prewarm"`
	}{specs})
	resp, err := h.refB.ref(board, netproto.CmdReconfigure, body)
	if err != nil {
		want = obsErr(err)
	} else if rep, perr := netproto.ParseRunReport(resp.Body); perr != nil {
		want = obsErr(perr)
	} else {
		want = fmt.Sprintf("queued=%d", netproto.ReconfigAckInfo(rep).Queued)
	}
	h.refB.idle()
	return got, want
}

// finalCheck compares closing invariants: per-board memory images
// (bit-identical) and the board-level load counters, which duplicate
// or replayed datagrams must never inflate.
func (h *harness) finalCheck() error {
	const window = 64 << 10
	for b := 0; b < nBoards; b++ {
		sm, serr := h.sut.systems[b].ReadMemory(leon.DefaultLoadAddr, window)
		rm, rerr := h.refB.systems[b].ReadMemory(leon.DefaultLoadAddr, window)
		if serr != nil || rerr != nil {
			return fmt.Errorf("final memory read: sut=%v ref=%v", serr, rerr)
		}
		if !bytes.Equal(sm, rm) {
			off := 0
			for off < len(sm) && sm[off] == rm[off] {
				off++
			}
			return h.diverge(len(h.trace), fmt.Sprintf("final-memory board=%d", b),
				fmt.Sprintf("byte %#x = %#02x", leon.DefaultLoadAddr+off, sm[off]),
				fmt.Sprintf("byte %#x = %#02x", leon.DefaultLoadAddr+off, rm[off]))
		}
		const loads = "liquid_fpx_loads_completed_total"
		sl := h.sut.plats[b].Metrics().Snapshot().Counter(loads)
		rl := h.refB.plats[b].Metrics().Snapshot().Counter(loads)
		if sl != rl {
			return h.diverge(len(h.trace), fmt.Sprintf("final-loads board=%d", b),
				fmt.Sprintf("loads_completed=%d", sl),
				fmt.Sprintf("loads_completed=%d", rl))
		}
	}
	return nil
}
