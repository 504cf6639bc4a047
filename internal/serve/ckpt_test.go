package serve

import (
	"bytes"
	"testing"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/obs"
	"dfdbg/internal/world"
)

func waitFor(t *testing.T, ch chan Event, kind string) Event {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.Event == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %q event", kind)
		}
	}
}

func mustExec(t *testing.T, s *Session, line string) {
	t.Helper()
	res, err := s.Exec(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if res.Err != nil {
		t.Fatalf("%q: %v", line, res.Err)
	}
}

// finalState captures the session's deterministic state blob on its own
// goroutine.
func finalState(t *testing.T, s *Session) []byte {
	t.Helper()
	out, err := s.do(func(w *world.World) any {
		b, err := w.CaptureState()
		if err != nil {
			t.Errorf("capture: %v", err)
			return []byte(nil)
		}
		return b
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	return out.([]byte)
}

// marks counts the checkpoint-lifecycle events in the session's live
// world, on its goroutine.
func marks(t *testing.T, s *Session) [2]int {
	t.Helper()
	out, err := s.do(func(w *world.World) any {
		var n [2]int
		for _, ev := range w.Rec.Snapshot() {
			switch ev.Kind {
			case obs.KCheckpoint:
				n[0]++
			case obs.KRestore:
				n[1]++
			}
		}
		return n
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	return out.([2]int)
}

// TestSessionCheckpointMarks checks that a session records each
// checkpoint event exactly once: a save adds one KCheckpoint to the live
// world, and a restore, reverse-step, reverse-continue, crash recovery
// or import leaves one KRestore in the world it swaps in. Auto
// checkpoints are off so only the listed commands save.
func TestSessionCheckpointMarks(t *testing.T) {
	mgr := NewManager(4, 0)
	mgr.SetCheckpointPolicy(-1, -1, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if got := marks(t, s); got != [2]int{1, 0} {
		t.Errorf("boot: checkpoint/restore marks %v, want [1 0]", got)
	}
	for _, step := range []struct {
		line string
		want [2]int
	}{
		{"filter pipe catch work", [2]int{1, 0}},
		{"checkpoint a", [2]int{2, 0}},
		{"continue", [2]int{2, 0}},
		{"reverse-step", [2]int{0, 1}},
		{"continue", [2]int{0, 1}},
		{"reverse-continue", [2]int{0, 1}},
		{"restore 1", [2]int{0, 1}},
		{"fault add panic filter mb @ 2", [2]int{0, 1}},
		{"checkpoint armed", [2]int{1, 1}},
		// The induced panic crashes the world; recovery restores "armed".
		{"continue", [2]int{0, 1}},
	} {
		if _, err := s.Exec(step.line); err != nil {
			t.Fatalf("%q: %v", step.line, err)
		}
		if got := marks(t, s); got != step.want {
			t.Errorf("after %q: checkpoint/restore marks %v, want %v", step.line, got, step.want)
		}
	}
	if got := mgr.sessionsRecovered.Value(); got != 1 {
		t.Errorf("sessions_recovered_total = %d, want 1", got)
	}

	params, container, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	dst := NewManager(4, 0)
	defer dst.CloseAll()
	imp, err := dst.Import(s.ID, params, container)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := marks(t, imp); got != [2]int{0, 1} {
		t.Errorf("import: checkpoint/restore marks %v, want [0 1]", got)
	}
}

// TestCrashRecoveryByteIdentical is the acceptance path: a session
// killed by an injected panic mid-decode is auto-restored from its last
// checkpoint (replay-verified), the crash fault is disarmed, the
// interrupted continue re-executes, and the decode completes with state
// — frame, token traffic, scheduler — byte-identical to a session that
// never crashed.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	mgr := NewManager(4, 0)

	crash, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer crash.Close("test-done")
	sub := &chanSub{ch: make(chan Event, 64)}
	crash.Subscribe(sub)

	mustExec(t, crash, "fault add panic filter mb @ 2")
	mustExec(t, crash, "checkpoint armed")

	res, err := crash.Exec("continue")
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	if res.Stop == nil || res.Stop.Crash == nil {
		t.Fatalf("want a crash stop, got %+v", res.Stop)
	}
	if res.Stop.Crash.Actor != "mb" {
		t.Errorf("crash actor = %q, want mb", res.Stop.Crash.Actor)
	}

	rec := waitFor(t, sub.ch, "session-recovered")
	if rec.Checkpoint == nil || rec.Checkpoint.Label != "armed" {
		t.Errorf("recovered from %+v, want the 'armed' checkpoint", rec.Checkpoint)
	}
	done := waitFor(t, sub.ch, "stop")
	if done.Stop == nil || !done.Stop.Done {
		t.Fatalf("re-executed continue stopped at %+v, want completion", done.Stop)
	}
	if got := mgr.sessionsRecovered.Value(); got != 1 {
		t.Errorf("sessions_recovered_total = %d, want 1", got)
	}

	// The uninterrupted reference: same fault armed, manually disarmed,
	// same continue — but no crash and no restore ever happens.
	ref, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create ref: %v", err)
	}
	defer ref.Close("test-done")
	mustExec(t, ref, "fault add panic filter mb @ 2")
	mustExec(t, ref, "checkpoint armed")
	mustExec(t, ref, "fault disarm panic filter mb @ 2")
	res, err = ref.Exec("continue")
	if err != nil {
		t.Fatalf("ref continue: %v", err)
	}
	if res.Stop == nil || !res.Stop.Done {
		t.Fatalf("ref stopped at %+v, want completion", res.Stop)
	}

	got := finalState(t, crash)
	want := finalState(t, ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered session diverged from the uninterrupted run: %v", ckpt.Diff(want, got))
	}
}

// TestCheckpointOpsOverWire drives checkpoint, checkpoints, restore and
// reverse execution through the wire protocol.
func TestCheckpointOpsOverWire(t *testing.T) {
	_, addr := startServer(t, Options{IdleTimeout: -1})
	w := dialWire(t, addr)
	w.waitEvent("hello")

	r := w.roundTrip(Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %+v", r)
	}
	sid := r.Session

	r = w.roundTrip(Request{Op: "checkpoint", Session: sid, Label: "start"})
	if !r.OK {
		t.Fatalf("checkpoint: %+v", r)
	}

	r = w.roundTrip(Request{Op: "checkpoints", Session: sid})
	if !r.OK || len(r.Checkpoints) < 2 {
		t.Fatalf("checkpoints: ok=%v n=%d (want boot + start)", r.OK, len(r.Checkpoints))
	}
	if r.Checkpoints[0].Label != "boot" {
		t.Errorf("first checkpoint %+v, want the boot checkpoint", r.Checkpoints[0])
	}

	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "continue"})
	if !r.OK || r.Stop == nil || !r.Stop.Done {
		t.Fatalf("continue: %+v", r)
	}

	// reverse-step undoes the continue; the session announces the swap.
	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "reverse-step"})
	if !r.OK {
		t.Fatalf("reverse-step: %+v", r)
	}
	w.waitEvent("restored")

	// restore (latest) via the dedicated op.
	r = w.roundTrip(Request{Op: "restore", Session: sid})
	if !r.OK {
		t.Fatalf("restore: %+v", r)
	}
	w.waitEvent("restored")

	// The swapped-in world serves commands: re-run to completion.
	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "continue"})
	if !r.OK || r.Stop == nil || !r.Stop.Done {
		t.Fatalf("continue after restore: %+v", r)
	}
}
