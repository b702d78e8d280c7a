package hostinfo

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestCurrentStamp: the stamp names this process's CPUs and Go
// version, always has a CPU model, and flattens into a BENCH data
// object under its three keys.
func TestCurrentStamp(t *testing.T) {
	h := Current()
	if h.HostCPUs != runtime.NumCPU() || h.GoVersion != runtime.Version() || h.CPUModel == "" {
		t.Fatalf("stamp %+v", h)
	}
	raw, err := json.Marshal(struct {
		NsPerStep float64
		Host
	}{1.5, h})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"NsPerStep":1.5`, `"HostCPUs":`, `"GoVersion":`, `"CPUModel":`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("%s lacks %s", raw, key)
		}
	}
}
