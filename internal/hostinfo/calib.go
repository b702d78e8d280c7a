package hostinfo

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// CalibRefMS is the calibration's time on the reference host, the
// 2-vCPU Xeon VM the benchmark figures come from (perfbench uses the
// same work and reference).
const CalibRefMS = 10.0

// calib is the calibration's fixed input and reused buffers, built on
// first use, so a calibration allocates nothing. mu serializes
// calibrations.
var calib struct {
	mu          sync.Mutex
	ints0, ints []int
	in          []byte
	out         bytes.Buffer
	w           *flate.Writer
}

// Calibrate times a fixed piece of standard-library work, independent
// of the repository's code — sorting 50k integers and deflating 128 KB
// of text — after collecting garbage, and returns its time in
// milliseconds. A host time divided by a calibration taken next to it
// in the same process compares across hosts and across the drift of a
// shared one.
func Calibrate() float64 {
	c := &calib
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
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
	}
	runtime.GC()
	t0 := time.Now()
	copy(c.ints, c.ints0)
	sort.Ints(c.ints)
	c.out.Reset()
	c.w.Reset(&c.out)
	c.w.Write(c.in)
	c.w.Close()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
