// Package hostinfo names the host a measurement ran on. The gated
// benchmarks stamp it into the BENCH_*.json files they emit, so a
// checked-in figure says which machine produced it.
package hostinfo

import (
	"os"
	"runtime"
	"strings"
)

// Host is the stamp: logical CPUs, Go version and CPU model. The JSON
// keys match the other fields of the BENCH files' data objects.
type Host struct {
	HostCPUs  int    `json:"HostCPUs"`
	GoVersion string `json:"GoVersion"`
	CPUModel  string `json:"CPUModel"`
}

// Current returns this host's stamp. CPUModel is the first "model
// name" in /proc/cpuinfo, or "unknown" where there is none.
func Current() Host {
	h := Host{HostCPUs: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown"}
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
