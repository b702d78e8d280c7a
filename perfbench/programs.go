package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
)

// The seed chooses kernel constants and data, never the shape of a
// kernel: every constant is a simm13 immediate in [1, 4095] (one
// instruction whatever its value), no branch depends on data, and the
// multiplier has a fixed latency. So a point's simulated cycle count is
// the same for every seed, which is what lets sim_cycles_per_op repeat
// exactly across seeds.

// konst draws one seeded kernel constant.
func konst(rng *rand.Rand) uint32 { return uint32(1 + rng.Intn(4095)) }

// program is one compiled kernel and the exit value it must return.
type program struct {
	img    *link.Image
	expect uint32
}

// compile builds src with lcc + link (the Fig. 4 tool flow) and records
// the build time for lcc.build_ms.
func compile(name, src string, opts lcc.Options, expect uint32, builds *[]time.Duration) (*program, error) {
	t0 := time.Now()
	asmText, err := lcc.Compile(src, opts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	img, err := link.Build(asmText, link.Options{})
	if err != nil {
		return nil, fmt.Errorf("link %s: %w", name, err)
	}
	*builds = append(*builds, time.Since(t0))
	return &program{img: img, expect: expect}, nil
}

// fig7 is the Fig. 7 array-access kernel (stride-32 index into a 4 KB
// array, wrapped mod 1024) preceded by a seeded initialisation of the
// array, so the exit value checks the data path. iters is the number of
// loop iterations (Fig. 7 itself: 32768). With array 0 the array is a
// global in SRAM as in Fig. 7; otherwise it lives at that address.
func fig7(rng *rand.Rand, iters int, array uint32, builds *[]time.Duration) (*program, error) {
	a, b := konst(rng), konst(rng)
	global, local := "int count[1024];\n", ""
	if array != 0 {
		global, local = "", fmt.Sprintf("    int *count = (int*)0x%08X;\n", array)
	}
	src := fmt.Sprintf(`
%sint result;

int main() {
%s    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1024; i++)
        count[i] = (i ^ %d) + %d;
    for (i = 0; i < %d; i = i + 32) {
        address = i %% 1024;
        x = x + count[address];
    }
    result = x;
    return x;
}`, global, local, a, b, iters*32)
	var x uint32
	for k := 0; k < iters; k++ {
		i := uint32(k*32) % 1024
		x += (i ^ a) + b
	}
	return compile(fmt.Sprintf("fig7x%d", iters), src, lcc.Options{}, x, builds)
}

// footprint generates a kernel whose loop body (50 distinct statements,
// about 1.5 KB of code) overflows a small instruction cache.
func footprint(rng *rand.Rand, passes int, builds *[]time.Duration) (*program, error) {
	var b strings.Builder
	b.WriteString("int main() {\n    int x = 1;\n    int pass;\n")
	fmt.Fprintf(&b, "    for (pass = 0; pass < %d; pass++) {\n", passes)
	ks := make([]uint32, 50)
	for i := range ks {
		ks[i] = konst(rng)
		fmt.Fprintf(&b, "        x = x * 3 + %d;\n", ks[i])
	}
	b.WriteString("    }\n    return x;\n}\n")
	x := uint32(1)
	for p := 0; p < passes; p++ {
		for _, k := range ks {
			x = x*3 + k
		}
	}
	return compile("footprint", b.String(), lcc.Options{}, x, builds)
}

// Data placed in SDRAM sits behind the §3.2 AHB↔SDRAM adapter. The
// dot-product operands are 2 KB apart: in a 2 KB direct-mapped data
// cache a[i] and b[i] evict each other, with two or more ways they
// coexist.
const (
	dotA      = leon.SDRAMBase + 0x1000
	dotB      = leon.SDRAMBase + 0x1800
	fig7SDRAM = leon.SDRAMBase + 0x4000
)

// dot is the dot-product kernel: a seeded SDRAM initialisation (stores
// pay the adapter's read-modify-write) then passes multiply-accumulate
// sweeps.
func dot(rng *rand.Rand, passes int, builds *[]time.Duration) (*program, error) {
	ka, kb := konst(rng), konst(rng)
	src := fmt.Sprintf(`
int main() {
    int *a = (int*)0x%08X;
    int *b = (int*)0x%08X;
    int i;
    int pass;
    int acc = 0;
    for (i = 0; i < 256; i++) {
        a[i] = (i ^ %d) + 1;
        b[i] = (i ^ %d) + 2;
    }
    for (pass = 0; pass < %d; pass++)
        for (i = 0; i < 256; i++)
            acc = acc + a[i] * b[i];
    return acc;
}`, dotA, dotB, ka, kb, passes)
	var acc uint32
	for p := 0; p < passes; p++ {
		for i := uint32(0); i < 256; i++ {
			acc += ((i ^ ka) + 1) * ((i ^ kb) + 2)
		}
	}
	return compile("dot", src, lcc.Options{}, acc, builds)
}

// sumWords is how many data words the remote-run program sums: a fixed
// count, so every image size costs the same few thousand cycles.
const sumWords = 256

// sumProgram compiles the remote-run kernel: it sums the first sumWords
// words of the data block at dataAddr.
func sumProgram(dataAddr uint32, builds *[]time.Duration) (*program, error) {
	src := fmt.Sprintf(`
int main() {
    int *buf = (int*)0x%08X;
    int i;
    int x = 0;
    for (i = 0; i < %d; i++)
        x = x + buf[i];
    return x;
}`, dataAddr, sumWords)
	return compile("sum", src, lcc.Options{}, 0, builds)
}

// remoteImage is one remote-run point: the summing program followed by
// a seeded data block, padded so the whole image is chunks one-KB load
// chunks.
type remoteImage struct {
	bytes   []byte
	data    []byte // the data block (a suffix of bytes)
	sum     uint32 // expected exit value
	readOff int    // offset of the read-back slice within data
}

// readBackBytes is the length of the data slice each op reads back.
const readBackBytes = 256

// buildRemoteImage lays out code ‖ zero pad ‖ seeded data, with the data
// block starting at dataOff bytes into the image.
func buildRemoteImage(rng *rand.Rand, code []byte, dataOff, chunks int) remoteImage {
	total := chunks * 1024
	im := make([]byte, total)
	copy(im, code)
	data := im[dataOff:]
	rng.Read(data)
	var sum uint32
	for i := 0; i < sumWords; i++ {
		sum += binary.BigEndian.Uint32(data[i*4:])
	}
	return remoteImage{
		bytes:   im,
		data:    data,
		sum:     sum,
		readOff: 4 * rng.Intn((len(data)-readBackBytes)/4),
	}
}
