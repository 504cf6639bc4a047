// Checkpoint-mode chaos (DESIGN §13): the same seeded fault gauntlet,
// but driven through the CLI so every state-mutating action — arming
// the watchdog, generating the plan, each continue, each token-surgery
// recovery — is a journaled command a rebuilt stack can replay. The
// run is checkpointed between rounds, killed (full stack teardown) at
// a seeded random round, restored from the last checkpoint with replay
// verification, and must finish with the final status, fault trace and
// complete state blob byte-identical to an uninterrupted run.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/world"
)

// runJournaled drives one CLI-journaled gauntlet over the served world
// (world.Build: payload recording, the init phase, batch plans that the
// armed plan demotes). killAt > 0 tears the whole world down at the
// start of that round and restores from the last checkpoint (rebuild +
// replay + byte-verification); 0 runs uninterrupted. Returns the
// verdict, the final state blob, and how many restores happened.
func runJournaled(seed int64, o Options, killAt int) (*Result, []byte, error) {
	p := h264.Params{W: o.W, H: o.H, QP: 8, Seed: 7}
	build := func() (*world.World, error) { return world.Build(p, h264.BugNone, nil) }
	w, err := build()
	if err != nil {
		return nil, nil, err
	}
	b := world.Bind(w, build)
	b.Mgr.Limit = 4
	defer func() { b.Cur.Shutdown() }()

	res := &Result{Seed: seed, FinalStatus: "gave-up"}
	res.Plan = fault.Generate(seed, w.RT.FaultTargets())
	// The watchdog and the plan arrive as journaled commands so replay
	// re-creates them.
	if r := b.Exec(fmt.Sprintf("watchdog %d", uint64(o.Watchdog))); r.Err != nil {
		return res, nil, r.Err
	}
	if r := b.Exec(fmt.Sprintf("fault gen %d", seed)); r.Err != nil {
		return res, nil, r.Err
	}
	if _, err := b.Save("boot"); err != nil {
		return res, nil, err
	}

	finish := func(status string) (*Result, []byte, error) {
		res.FinalStatus = status
		if inj := b.Cur.K.Faults(); inj != nil {
			res.Trace = inj.TraceStrings()
		}
		state, err := b.Cur.CaptureState()
		return res, state, err
	}

	// Rounds re-executed after a restore count again, so the loop bound
	// gets headroom for the replayed tail.
	for res.Rounds = 1; res.Rounds <= o.Rounds+ckptEveryRounds; res.Rounds++ {
		if res.Rounds == killAt {
			b.Cur.Shutdown()
			if _, err := b.Restore(b.Mgr.Latest()); err != nil {
				return res, nil, fmt.Errorf("restore after kill at round %d: %w", killAt, err)
			}
			b.Adopt(nil)
			res.Restores++
		}
		r := b.Exec("continue")
		if r.Err != nil {
			return res, nil, fmt.Errorf("round %d: %v", res.Rounds, r.Err)
		}
		switch {
		case r.Stop == nil || r.Stop.Done:
			return finish("completed")
		case r.Stop.Crash != nil:
			res.Crashes++
			return finish("crashed-contained")
		case r.Stop.Stalled || r.Stop.Deadlock:
			res.Stalls++
			if u := b.Exec("unstick apply"); u.Err != nil {
				return res, nil, fmt.Errorf("round %d: unstick: %v", res.Rounds, u.Err)
			}
			res.Unsticks++
		}
		if res.Rounds%ckptEveryRounds == 0 {
			if _, err := b.Save("auto"); err != nil {
				return res, nil, err
			}
		}
	}
	return res, nil, fmt.Errorf("seed %d: gave up after %d rounds (%d stalls)", seed, res.Rounds-1, res.Stalls)
}

// ckptEveryRounds is the checkpoint cadence of the journaled gauntlet.
const ckptEveryRounds = 2

// RunCheckpoint executes seed's gauntlet twice — once uninterrupted and
// once killed at a seeded random round, restored, and replay-verified —
// and fails unless final status, fault trace, and the complete state
// blob agree byte-for-byte.
func RunCheckpoint(seed int64, o Options) (*Result, error) {
	o = o.withDefaults()
	ref, refState, err := runJournaled(seed, o, 0)
	if err != nil {
		return nil, fmt.Errorf("seed %d (reference): %w", seed, err)
	}
	killAt := 1 + int(rand.New(rand.NewSource(seed)).Int63n(int64(ref.Rounds)))
	got, gotState, err := runJournaled(seed, o, killAt)
	if err != nil {
		return nil, fmt.Errorf("seed %d (killed at round %d): %w", seed, killAt, err)
	}
	if got.Restores != 1 {
		return nil, fmt.Errorf("seed %d: %d restores, want exactly 1 (kill at round %d of %d)",
			seed, got.Restores, killAt, ref.Rounds)
	}
	if got.FinalStatus != ref.FinalStatus {
		return nil, fmt.Errorf("seed %d: interrupted run ended %q, uninterrupted %q",
			seed, got.FinalStatus, ref.FinalStatus)
	}
	if strings.Join(got.Trace, "\n") != strings.Join(ref.Trace, "\n") {
		return nil, fmt.Errorf("seed %d: fault trace diverged after kill/restore:\n--- uninterrupted\n%s\n--- restored\n%s",
			seed, strings.Join(ref.Trace, "\n"), strings.Join(got.Trace, "\n"))
	}
	if !bytes.Equal(gotState, refState) {
		return nil, fmt.Errorf("seed %d: final state diverged after kill/restore: %v",
			seed, ckpt.Diff(refState, gotState))
	}
	return got, nil
}
