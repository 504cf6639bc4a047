// Crash-safe session supervision (DESIGN §13). Every session's world
// sits under a world.Binding that journals its state-mutating command
// lines and captures replay-verifiable checkpoints at command
// boundaries. When a command crashes the session — a contained `fault
// panic` surfacing as a crash stop, or a genuine Go panic unwinding the
// command closure — the supervisor rebuilds the world from the last
// good checkpoint (rebuild + journal replay + byte-for-byte
// verification), disarms the pending kill-class faults so the
// recovered timeline cannot die the same way, re-executes the
// interrupted command, and tells attached clients via a
// "session-recovered" event. Restarts are budgeted with exponential
// backoff; a session that exhausts the budget closes with reason
// "crash-loop".
package serve

import (
	"fmt"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/h264"
	"dfdbg/internal/world"
)

// Supervision defaults (override via Options / SetCheckpointPolicy).
const (
	defaultCkptEvery    = 8
	defaultCkptInterval = 30 * time.Second
	defaultRestartLimit = 3
)

// panicReply is the out-of-band reply for a command whose closure
// panicked: do() converts it to an error for the waiting client, and
// the session loop runs crash recovery instead of dying.
type panicReply struct{ err error }

// runShielded executes one command closure, converting a panic into a
// panicReply so a crashing command kills neither the session goroutine
// nor the client blocked on the reply channel.
func runShielded(cmd sessionCmd, w *world.World) (out any) {
	defer func() {
		if r := recover(); r != nil {
			what := cmd.line
			if what == "" {
				what = "internal query"
			}
			out = panicReply{err: fmt.Errorf("serve: %q panicked: %v", what, r)}
		}
	}()
	return cmd.run(w)
}

// supervisor owns one session's checkpoint binding, auto-checkpoint
// policy and crash recovery. It lives on the session goroutine and is
// not goroutine-safe.
type supervisor struct {
	s *Session
	b *world.Binding

	every    int           // auto-checkpoint each N journaled commands (0 = off)
	interval time.Duration // auto-checkpoint after this much wall time (0 = off)
	restarts int           // crash recoveries left

	lastAt     time.Time
	recoveries int // recoveries performed (drives the backoff)
}

func newSupervisor(s *Session) *supervisor {
	return &supervisor{
		s:        s,
		every:    s.mgr.ckptEvery,
		interval: s.mgr.ckptInterval,
		restarts: s.mgr.restartLimit,
		lastAt:   time.Now(),
	}
}

// open boots the session's first world and binds it. An imported
// session is rebuilt, replayed and byte-compared against its
// migrated-in container (the same DivergenceError discipline as a
// restore), which becomes the recovery floor; a fresh one takes its
// birth checkpoint so crash recovery always has a floor to restore to.
// The birth capture is best effort: a session whose state cannot be
// captured still serves, it just cannot recover from crashes.
func (sup *supervisor) open(params SessionParams, boot *ckpt.Checkpoint) error {
	bug, err := h264.ParseBug(params.Bug)
	if err != nil {
		return err
	}
	p := h264.Params{W: params.W, H: params.H, QP: params.QP, Seed: params.Seed}
	build := func() (*world.World, error) { return world.Build(p, bug, nil) }
	if boot != nil {
		if sup.b, err = world.Import(boot, build); err != nil {
			return err
		}
		sup.b.Saved = sup.saved
		return nil
	}
	w, err := build()
	if err != nil {
		return err
	}
	sup.b = world.Bind(w, build)
	sup.b.Saved = sup.saved
	_, _ = sup.b.Save("boot")
	return nil
}

// saved restarts the wall-clock trigger after every capture and
// publishes its size.
func (sup *supervisor) saved(cp *ckpt.Checkpoint) {
	sup.lastAt = time.Now()
	sup.s.mgr.checkpointBytes.Set(int64(len(cp.State)))
}

// maybeAuto checkpoints at a command boundary when the configured
// command-count or wall-clock trigger fires. Only worlds that changed
// since the last checkpoint are captured.
func (sup *supervisor) maybeAuto() {
	since := sup.b.Since()
	if since == 0 {
		return
	}
	if (sup.every > 0 && since >= sup.every) ||
		(sup.interval > 0 && time.Since(sup.lastAt) >= sup.interval) {
		_, _ = sup.b.Save("auto")
	}
}

// recoverFrom is the crash path: restore the last good checkpoint,
// disarm pending kill-class faults, re-execute the interrupted line
// when its cause was disarmed, and announce the recovery. It reports
// false when the restart budget is exhausted, no checkpoint exists, or
// the restore itself failed (divergence) — the caller then closes the
// session.
func (sup *supervisor) recoverFrom(line, cause string) bool {
	if sup.restarts <= 0 {
		return false
	}
	sup.restarts--
	sup.backoff()
	info, err := sup.b.Restore(sup.b.Mgr.Latest())
	if err != nil {
		return false
	}
	sup.b.Adopt(sup.s.rebind)
	disarmed := sup.disarmCrashFaults()
	sup.s.mgr.sessionsRecovered.Inc()
	sup.s.publish(Event{
		Event:      "session-recovered",
		Session:    sup.s.ID,
		Reason:     cause,
		Checkpoint: &info,
	})
	// Re-run the interrupted command on the recovered world only when a
	// crash fault was disarmed: an induced panic cannot recur, while an
	// organic one (a decoder bug, say) would just crash again.
	if line != "" && disarmed > 0 {
		if res := sup.b.Exec(line); res.Stop != nil {
			sup.s.publish(Event{Event: "stop", Session: sup.s.ID, Stop: res.Stop})
		}
	}
	return true
}

// disarmCrashFaults neutralizes every pending kill-class fault (panic,
// fail-pe) on the recovered world. The disarms run as journaled CLI
// commands, so later replays reproduce the recovered timeline exactly.
func (sup *supervisor) disarmCrashFaults() int {
	inj := sup.b.Cur.K.Faults()
	if inj == nil {
		return 0
	}
	n := 0
	for _, spec := range inj.PendingCrashSpecs() {
		if res := sup.b.Exec("fault disarm " + spec); res.Err == nil {
			n++
		}
	}
	return n
}

// backoff sleeps before a restart: 50ms doubling per recovery, capped
// at 2s, none before the first.
func (sup *supervisor) backoff() {
	if sup.recoveries > 0 {
		d := 50 * time.Millisecond << uint(sup.recoveries-1)
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		time.Sleep(d)
	}
	sup.recoveries++
}
