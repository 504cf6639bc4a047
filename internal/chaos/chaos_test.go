package chaos

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestChaos is the acceptance gate of the fault layer: 100+ seeded
// fault plans against the full debugger stack. Any escaped panic fails
// the test run outright (Go's test harness catches it); any contract
// violation — an unexplained stall, an unrecoverable induced deadlock —
// surfaces as an error from Run.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is long; run without -short")
	}
	const seeds = 120
	byStatus := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d violated the robustness contract: %v", seed, err)
		}
		byStatus[res.FinalStatus]++
		if res.Stalls > 0 && res.Unsticks == 0 && res.FinalStatus == "completed" {
			t.Errorf("seed %d: %d stall(s) resolved without recovery actions — watchdog misfire?",
				seed, res.Stalls)
		}
	}
	if byStatus["completed"] == 0 {
		t.Error("no seed completed — the harness never exercises the happy path")
	}
	t.Logf("outcomes over %d seeds: %v", seeds, byStatus)
}

// TestChaosBatched re-runs the 120-seed gauntlet with the batched
// execution engine enabled. Every chaos run arms a fault plan, which
// demotes every proven-SDF region to the per-token path (DESIGN §12),
// so each seed must reproduce the exact verdict, fault trace, and
// stall/recovery counts of its non-batched run — the demotion has to be
// observably transparent even under injected deadlocks and crashes.
func TestChaosBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is long; run without -short")
	}
	const seeds = 120
	byStatus := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		ref, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d violated the robustness contract: %v", seed, err)
		}
		bat, err := Run(seed, Options{Batch: true})
		if err != nil {
			t.Fatalf("seed %d (batched) violated the robustness contract: %v", seed, err)
		}
		if ref.String() != bat.String() {
			t.Errorf("seed %d: batched result diverged:\n  per-token %s\n  batched   %s",
				seed, ref, bat)
		}
		if strings.Join(ref.Trace, "\n") != strings.Join(bat.Trace, "\n") {
			t.Errorf("seed %d: batched fault trace diverged from per-token run", seed)
		}
		byStatus[bat.FinalStatus]++
	}
	if byStatus["completed"] == 0 {
		t.Error("no seed completed — the harness never exercises the happy path")
	}
	t.Logf("batched outcomes over %d seeds: %v", seeds, byStatus)
}

// TestChaosDeterminism reruns one seed and demands the identical fault
// trace — the paper's reproducibility requirement (P2) extended to
// injected faults.
func TestChaosDeterminism(t *testing.T) {
	const seed = 1
	a, err := Run(seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := strings.Join(a.Trace, "\n"), strings.Join(b.Trace, "\n")
	if ta != tb {
		t.Errorf("fault traces diverged across identical runs:\n--- first\n%s\n--- second\n%s", ta, tb)
	}
	if a.Plan.String() != b.Plan.String() {
		t.Errorf("generated plans diverged:\n%s\nvs\n%s", a.Plan, b.Plan)
	}
	if a.String() != b.String() {
		t.Errorf("results diverged: %s vs %s", a, b)
	}
}

// TestChaosStallsExplained asserts that at least one seed in a small
// window induces a deadlock, and that Run only reports it recovered
// because the watchdog explained it and unstick applied.
func TestChaosStallsExplained(t *testing.T) {
	sawStall := false
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stalls > 0 {
			sawStall = true
			if res.Unsticks == 0 {
				t.Errorf("seed %d stalled %d time(s) but applied no recovery", seed, res.Stalls)
			}
		}
	}
	if !sawStall {
		t.Error("no stall induced in seeds 1..10 — fault generator too tame for the watchdog test")
	}
}

// TestChaosCheckpoint is the crash-safety gauntlet (DESIGN §13): each
// seed's fault run is driven through journaled CLI commands, killed at
// a seeded random round (full stack teardown), restored from the last
// checkpoint with replay verification, and must end with the same final
// status, the same fault trace, and a byte-identical final state blob
// as an uninterrupted run. RunCheckpoint enforces all of that and
// errors on the first divergence.
func TestChaosCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint gauntlet is long; run without -short")
	}
	const seeds = 120
	byStatus := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Run(seed, Options{Checkpoint: true})
		if err != nil {
			t.Fatalf("seed %d violated the crash-safety contract: %v", seed, err)
		}
		if res.Restores != 1 {
			t.Errorf("seed %d: %d restores, want exactly 1", seed, res.Restores)
		}
		byStatus[res.FinalStatus]++
	}
	if byStatus["completed"] == 0 {
		t.Error("no seed completed — the gauntlet never exercises the happy path")
	}
	t.Logf("outcomes over %d kill/restore runs: %v", seeds, byStatus)
}

// TestChaosCheckpointSmoke keeps a handful of kill/restore/replay-verify
// runs in the -short tier so every `go test` exercises the crash-safety
// path.
func TestChaosCheckpointSmoke(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(seed, Options{Checkpoint: true})
		if err != nil {
			t.Fatalf("seed %d violated the crash-safety contract: %v", seed, err)
		}
		if res.Restores != 1 {
			t.Errorf("seed %d: %d restores, want exactly 1", seed, res.Restores)
		}
	}
}

// TestChaosRunReleasesKernel pins that every chaos run unwinds its
// kernel: twenty seeds later the process is back to the goroutines it
// started with.
func TestChaosRunReleasesKernel(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(1); seed <= 20; seed++ {
		if _, err := Run(seed, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 20 seeds, want <= %d: a run leaked its kernel", n, base)
	}
}
