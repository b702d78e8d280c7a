package modeltest

import (
	"flag"
	"os"
	"strconv"
	"testing"
	"time"
)

// seedFlag replays one model run:
//
//	go test ./internal/sim/modeltest -run TestModelReplay -args -seed=N
var seedFlag = flag.Int64("seed", 0, "model seed to replay (TestModelReplay)")

// smokeSeeds is how many pinned seeds TestModelSmoke sweeps. The CI
// sim-smoke target raises it via LIQUID_SIM_SEEDS (≥100); plain `go
// test` keeps a lighter default, `-short` lighter still.
func smokeSeeds(t *testing.T) int {
	if v := os.Getenv("LIQUID_SIM_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad LIQUID_SIM_SEEDS=%q", v)
		}
		return n
	}
	if testing.Short() {
		return 6
	}
	return 20
}

// TestModelSmoke sweeps pinned seeds 1..N: every randomized cluster
// run — lossy links, mixed boards — must match
// the sequential reference model on every observable.
func TestModelSmoke(t *testing.T) {
	n := smokeSeeds(t)
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			if err := Run(Config{Seed: seed}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestModelReconfigIdleMix sweeps pinned seeds over the
// reconfiguration-plus-idle op mix across lossy links: budget-length
// poll-loop idles (stepped in full, each ending in its budget fault
// with a cycle count at the budget) interleaved with cache
// reconfigurations and enough runs and reads to keep memory and
// configuration state moving. Every observable must match the
// sequential reference.
func TestModelReconfigIdleMix(t *testing.T) {
	n := smokeSeeds(t)/2 + 1
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			if err := Run(Config{Seed: seed, IdleMix: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestModelReplay re-executes one seed printed by a failing run.
func TestModelReplay(t *testing.T) {
	if *seedFlag == 0 {
		t.Skip("no -seed given (go test ./internal/sim/modeltest -run TestModelReplay -args -seed=N)")
	}
	t.Logf("replaying model seed %d", *seedFlag)
	if err := Run(Config{Seed: *seedFlag}); err != nil {
		t.Fatal(err)
	}
}

// bugConfig is the fault profile that exposes a missing dedup window:
// duplicated datagrams re-delivered 40 ms late, long after their
// exchange completed — exactly the stale replays the window re-acks.
func bugConfig(seed int64, disabled bool) Config {
	return Config{
		Seed:          seed,
		Ops:           18,
		LoadHeavy:     true,
		DedupDisabled: disabled,
		Faults: &Faults{
			Dup:      0.35,
			DupDelay: 40 * time.Millisecond,
			Latency:  time.Millisecond,
			Jitter:   500 * time.Microsecond,
		},
	}
}

// TestModelCatchesDedupBug plants the deliberate protocol bug — the
// server skips the at-most-once dedup window, so a stale duplicated
// load chunk re-executes and resets an in-flight load — and proves the
// model harness (a) catches it with a seed, (b) reproduces the catch
// when the seed is replayed, and (c) does not cry wolf when the window
// is in place under the identical fault schedule.
func TestModelCatchesDedupBug(t *testing.T) {
	if testing.Short() {
		t.Skip("bug-hunt sweep is not a -short test")
	}
	var caught int64
	var firstErr error
	for seed := int64(1); seed <= 40; seed++ {
		if err := Run(bugConfig(seed, true)); err != nil {
			caught, firstErr = seed, err
			break
		}
	}
	if caught == 0 {
		t.Fatal("dedup-disabled cluster matched the model over 40 seeds; the injected bug was never caught")
	}
	div, ok := firstErr.(*Divergence)
	if !ok {
		t.Fatalf("caught error is %T, want *Divergence: %v", firstErr, firstErr)
	}
	if div.Seed != caught {
		t.Errorf("divergence reports seed %d, want %d", div.Seed, caught)
	}
	t.Logf("injected bug caught at seed %d:\n%v", caught, firstErr)

	// (b) The catch replays: the same seed diverges again.
	if err := Run(bugConfig(caught, true)); err == nil {
		t.Errorf("seed %d did not reproduce the divergence on replay", caught)
	}

	// (c) With the dedup window in place, the same seed and fault
	// schedule converge: the divergence is the bug, not the harness.
	if err := Run(bugConfig(caught, false)); err != nil {
		t.Errorf("seed %d diverges even with dedup enabled: %v", caught, err)
	}
}
