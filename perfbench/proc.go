package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of /proc CPU times (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// node is a liquid-server process the benchmark launched.
type node struct {
	cmd     *exec.Cmd
	addr    string
	dir     string
	drained chan struct{}
}

var (
	nodesMu sync.Mutex
	nodes   = map[*node]bool{}
)

// nodeGOMAXPROCS is the GOMAXPROCS every node process runs with.
func nodeGOMAXPROCS() int { return runtime.NumCPU() }

var listenRE = regexp.MustCompile(` on (\S+) \((\d+) board`)

// startNode launches the stock liquid-server with the given board count
// on a free loopback port and waits until it serves.
func startNode(o options, boards int) (*node, error) {
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "node-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.serverBin,
		"-listen", "127.0.0.1:0",
		"-boards", strconv.Itoa(boards),
		"-uart=false",
		"-flightrec-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeGOMAXPROCS()))
	// The node must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", o.serverBin, err)
	}
	n := &node{cmd: cmd, dir: dir, drained: make(chan struct{})}
	nodesMu.Lock()
	nodes[n] = true
	nodesMu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		defer close(n.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case n.addr = <-addrc:
		return n, nil
	case <-n.drained:
		n.stop()
		return nil, fmt.Errorf("liquid-server exited before serving")
	case <-time.After(20 * time.Second):
		n.stop()
		return nil, fmt.Errorf("liquid-server did not report its address within 20 s")
	}
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// stop terminates the node and waits until it has exited.
func (n *node) stop() {
	nodesMu.Lock()
	live := nodes[n]
	delete(nodes, n)
	nodesMu.Unlock()
	if !live {
		return
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.drained:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-n.drained
	}
	n.cmd.Wait()
	os.RemoveAll(n.dir)
}

// stopAllNodes stops every node still running (error and watchdog
// paths).
func stopAllNodes() {
	nodesMu.Lock()
	var all []*node
	for n := range nodes {
		all = append(all, n)
	}
	nodesMu.Unlock()
	for _, n := range all {
		n.stop()
	}
}

// procCPU returns the user+system CPU time of a process: this one (pid
// 0, from getrusage, to the microsecond) or another (from /proc, to the
// clock tick, including threads that have exited).
func procCPU(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	p := strconv.Itoa(pid)
	blob, err := os.ReadFile(filepath.Join("/proc", p, "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", p)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", p)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// threadsCPU returns the CPU time of the live threads of process pid, to
// the nanosecond, from /proc/<pid>/task/*/schedstat; unreadable threads
// count 0. It times short intervals, which clock ticks cannot.
func threadsCPU(pid int) time.Duration {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, _ := os.ReadDir(dir)
	var sum time.Duration
	for _, t := range tasks {
		blob, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		f := strings.Fields(string(blob))
		if len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			sum += time.Duration(ns)
		}
	}
	return sum
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) { return procRSSMB(pid, "VmHWM:") }

// procRSSMB reads one memory field of /proc/<pid>/status in MB.
func procRSSMB(pid int, field string) (float64, error) {
	p := "self"
	if pid != 0 {
		p = strconv.Itoa(pid)
	}
	blob, err := os.ReadFile(filepath.Join("/proc", p, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, p)
}

// hostInfo describes the machine a run measured on.
type hostInfo struct {
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs_bench"`
	NodeGOMAXPROCS int    `json:"gomaxprocs_node"`
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
}

func hostInfoNow() hostInfo {
	h := hostInfo{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NodeGOMAXPROCS: nodeGOMAXPROCS(),
		GoVersion:      runtime.Version(),
		CPUModel:       "unknown",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// hostWindow is how the host's CPUs were shared during one window, from
// /proc/stat: the hypervisor's steal share, and the share of all CPU
// time used by processes other than the benchmark and its node.
type hostWindow struct {
	Seconds    float64 `json:"seconds"`
	StealShare float64 `json:"steal_share"`
	OtherShare float64 `json:"other_share"`
	// CalibDiscarded counts the window's calibrations during which the
	// node's process was not idle (see nodeIdleShare).
	CalibDiscarded int           `json:"calibrations_discarded"`
	Calibrations   []calibration `json:"calibrations"`
}

// hostSample is the start of a hostWindow.
type hostSample struct {
	at     time.Time
	cpu    []uint64
	ownCPU time.Duration
}

// procStatCPU reads the aggregate "cpu" line of /proc/stat.
func procStatCPU() []uint64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8) // user nice system idle iowait irq softirq steal
	for i := range out {
		out[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return out
}

// ownCPU sums the CPU time of this process and of the node's, when it
// runs in another (pid not 0).
func ownCPU(pid int) time.Duration {
	sum, _ := procCPU(0)
	if pid != 0 {
		d, _ := procCPU(pid)
		sum += d
	}
	return sum
}

func sampleHost(pid int) hostSample {
	return hostSample{at: time.Now(), cpu: procStatCPU(), ownCPU: ownCPU(pid)}
}

func (s hostSample) finish(pid int) hostWindow {
	hw := hostWindow{Seconds: time.Since(s.at).Seconds()}
	end := procStatCPU()
	if s.cpu == nil || end == nil {
		return hw
	}
	var total, idle, steal float64
	for i := range end {
		d := float64(end[i] - s.cpu[i])
		total += d
		switch i {
		case 3, 4:
			idle += d
		case 7:
			steal = d
		}
	}
	if total <= 0 {
		return hw
	}
	own := float64(ownCPU(pid)-s.ownCPU) / float64(clockTick)
	hw.StealShare = steal / total
	hw.OtherShare = math.Max(0, (total-idle-steal-own)/total)
	return hw
}
