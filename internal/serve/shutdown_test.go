package serve

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/world"
)

// settle waits for the goroutine count to drop back near base.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%s: goroutines %d, want <= %d (leak)", what, runtime.NumGoroutine(), base+5)
}

// TestPanicDuringCommandRecovers audits the teardown contract when a
// command closure panics on the session goroutine: the waiting client
// gets an error (not a hang), the session swaps in a recovered stack,
// and the wedged kernel's goroutines exit.
func TestPanicDuringCommandRecovers(t *testing.T) {
	before := runtime.NumGoroutine()
	mgr := NewManager(2, 0)
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	base := runtime.NumGoroutine()
	_, err = s.doCmd("explode", func(w *world.World) any { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking command returned %v, want a panicked error", err)
	}

	// The session recovered onto a fresh stack and still serves.
	res, err := s.Exec("checkpoints")
	if err != nil || res.Err != nil {
		t.Fatalf("post-panic exec: %v / %v", err, res.Err)
	}
	if got := mgr.sessionsRecovered.Value(); got != 1 {
		t.Errorf("sessions_recovered_total = %d, want 1", got)
	}
	// The old stack was shut down during the swap: no extra goroutines.
	settle(t, base, "after recovery")

	s.Close("test-done")
	settle(t, before, "after close")
}

// TestCrashLoopClosesSession pins the restart budget: once recoveries
// are exhausted, the session closes with reason "crash-loop", attached
// clients are told, and later commands fail fast instead of hanging.
func TestCrashLoopClosesSession(t *testing.T) {
	before := runtime.NumGoroutine()
	mgr := NewManager(2, 0)
	mgr.SetCheckpointPolicy(0, 0, 1) // one recovery, then give up
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sub := &chanSub{ch: make(chan Event, 64)}
	s.Subscribe(sub)

	if _, err := s.doCmd("explode", func(w *world.World) any { panic("boom 1") }); err == nil {
		t.Fatal("first panic: want error")
	}
	if _, err := s.doCmd("explode", func(w *world.World) any { panic("boom 2") }); err == nil {
		t.Fatal("second panic: want error")
	}

	ev := waitFor(t, sub.ch, "session-closed")
	if ev.Reason != "crash-loop" {
		t.Errorf("close reason %q, want crash-loop", ev.Reason)
	}
	<-s.done
	if _, err := s.Exec("checkpoints"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("exec on dead session: %v, want ErrSessionClosed", err)
	}
	if _, err := mgr.Get(s.ID); err == nil {
		t.Error("manager still lists the crash-looped session")
	}
	settle(t, before, "after crash-loop")
}
