package main

import (
	"bytes"
	"compress/flate"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The shared host's speed drifts by a quarter or more over minutes (other
// tenants), far more than the noise within a window. The benchmark
// therefore times a fixed piece of standard-library work — independent of
// the repository's code — before each window, after each of its
// one-second segments, and around each set-up, all while no op is in
// flight and the node's process is checked to be idle, and reports host
// times at a reference speed: the speed at which that work takes
// calibRefMS. On a 2-vCPU Xeon VM, 10 s averages of the
// time to sort and to deflate correlated 0.96-0.97 with the time of a
// Fig. 7 run on the simulator over two minutes of such drift.

const (
	// calibRefMS is the calibration's time on the reference host.
	calibRefMS = 10.0
	// hostElasticity is how much of the calibration's relative slowdown
	// the workloads' host times follow: over ten 20 s runs of each
	// workload, scaling by slowdown^0.75 left the least spread on all
	// three. An exponent fitted per workload (1.5 for sweep) did better
	// on the runs it was fitted to but not on ten fresh ones.
	hostElasticity = 0.75
)

// hostScale is the factor host times are divided by (rates multiplied
// by) for a calibration time of calibMS.
func hostScale(calibMS float64) float64 {
	return math.Pow(calibMS/calibRefMS, hostElasticity)
}

// calibState is the calibration's fixed input and reused buffers, so a
// calibration allocates nothing.
var calibState = func() (c struct {
	ints0, ints []int
	in          []byte
	out         bytes.Buffer
	w           *flate.Writer
}) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "abcdefgh ijklmnop\n"
	c.in = make([]byte, 128<<10)
	for i := range c.in {
		c.in[i] = alphabet[rng.Intn(len(alphabet))]
	}
	c.ints0 = make([]int, 50000)
	for i := range c.ints0 {
		c.ints0[i] = rng.Int()
	}
	c.ints = make([]int, len(c.ints0))
	c.out.Grow(128 << 10)
	c.w, _ = flate.NewWriter(&c.out, 6)
	return c
}()

// calibration is one timing of the calibration work, and the CPU time
// the node's own process used meanwhile.
type calibration struct {
	MS        float64 `json:"ms"`
	NodeCPUMS float64 `json:"node_cpu_ms"`
}

// nodeIdleShare is the most CPU, as a share of a calibration's time, the
// node's process may use during it for the calibration to count. A node
// that spins or polls while no op is in flight would slow the
// calibration and so scale its own regression away; its calibrations
// are discarded instead.
const nodeIdleShare = 0.05

func (c calibration) idle() bool { return c.NodeCPUMS <= nodeIdleShare*c.MS }

// scaleOf is the host scale of the median of the calibrations taken
// while the node was idle. With none such it is 1: host times are left
// unscaled, and the report counts the discarded calibrations.
func scaleOf(cals []calibration) float64 {
	var ms []float64
	for _, c := range cals {
		if c.idle() {
			ms = append(ms, c.MS)
		}
	}
	if len(ms) == 0 {
		return 1
	}
	return hostScale(median(ms))
}

// calibrate collects garbage (so the work pays for none of the
// workload's), then times sorting 50k integers and deflating 128 KB of
// text. With pid set, the node runs in that process, and its CPU time
// during the work is recorded; a node in this process (pid 0) is idle by
// construction, because every lane is.
func calibrate(pid int) calibration {
	runtime.GC()
	c := &calibState
	var n0 time.Duration
	if pid != 0 {
		n0 = threadsCPU(pid)
	}
	t0 := time.Now()
	copy(c.ints, c.ints0)
	sort.Ints(c.ints)
	c.out.Reset()
	c.w.Reset(&c.out)
	c.w.Write(c.in)
	c.w.Close()
	cal := calibration{MS: ms(time.Since(t0))}
	if pid != 0 {
		cal.NodeCPUMS = ms(threadsCPU(pid) - n0)
	}
	return cal
}
