package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dfdbg/internal/world"
)

// TestLifecycleTransitions enumerates every (phase, event) pair of the
// session state machine (booting → serving → retiring → closed) and pins,
// for each, the resulting phase and close reason, whether the manager
// still lists the session, and the exact session-closed events a
// subscriber that joined during boot receives.
func TestLifecycleTransitions(t *testing.T) {
	panicCmd := func(t *testing.T, _ *Manager, s *Session) {
		if _, err := s.doCmd("explode", func(*world.World) any { panic("boom") }); err == nil {
			t.Error("panicking command: want an error")
		}
	}
	quit := func(t *testing.T, _ *Manager, s *Session) {
		if res, err := s.Exec("quit"); err != nil || !res.Quit {
			t.Errorf("quit: %+v, %v", res, err)
		}
	}
	cases := []struct {
		name     string
		params   SessionParams
		idle     time.Duration // manager idle timeout
		restarts int           // SetCheckpointPolicy restart limit (0 = default)
		event    func(t *testing.T, mgr *Manager, s *Session)
		phase    phase
		reason   string
		listed   bool
		closed   []string // reasons of the delivered session-closed events
	}{
		{name: "boot failure", params: SessionParams{Bug: "not-a-bug"}, phase: closed},
		{name: "quit", event: quit, phase: closed, reason: "quit", closed: []string{"quit"}},
		{name: "kill", event: func(_ *testing.T, _ *Manager, s *Session) { s.Close("killed") },
			phase: closed, reason: "killed", closed: []string{"killed"}},
		{name: "server-shutdown", event: func(_ *testing.T, mgr *Manager, _ *Session) { mgr.CloseAll() },
			phase: closed, reason: "server-shutdown", closed: []string{"server-shutdown"}},
		{name: "export ok", event: func(t *testing.T, _ *Manager, s *Session) {
			if _, _, err := s.Export(); err != nil {
				t.Errorf("export: %v", err)
			}
		}, phase: closed, reason: "migrated", closed: []string{"migrated"}},
		{name: "export error", event: func(t *testing.T, _ *Manager, s *Session) {
			out, err := s.do(func(*world.World) any { return exportReply{err: errors.New("capture failed")} })
			if err != nil || out.(exportReply).err == nil {
				t.Errorf("failed export: %v, %v", out, err)
			}
		}, phase: serving, listed: true},
		{name: "reap yes", idle: time.Nanosecond, event: func(t *testing.T, mgr *Manager, _ *Session) {
			if n := mgr.ReapIdle(); n != 1 {
				t.Errorf("reaped %d, want 1", n)
			}
		}, phase: closed, reason: "idle-timeout", closed: []string{"idle-timeout"}},
		{name: "reap no", event: func(t *testing.T, _ *Manager, s *Session) {
			// A probe whose pre-filter reading is stale: a command ran since.
			if s.tryReap(s.lastUsed.Load() - 1) {
				t.Error("probe reaped a session used since it looked")
			}
		}, phase: serving, listed: true},
		{name: "crash recovered", event: panicCmd, phase: serving, listed: true},
		{name: "crash-loop", restarts: -1, event: panicCmd,
			phase: closed, reason: "crash-loop", closed: []string{"crash-loop"}},
		{name: "subscribe after retire", event: func(t *testing.T, mgr *Manager, s *Session) {
			quit(t, mgr, s)
			<-s.done
			late := &chanSub{ch: make(chan Event, 8)}
			if err := s.Subscribe(late); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Subscribe after retire: %v, want ErrSessionClosed", err)
			}
			if _, err := s.webBroadcaster(); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("webBroadcaster after retire: %v, want ErrSessionClosed", err)
			}
			if len(late.ch) != 0 {
				t.Errorf("late subscriber got %+v", <-late.ch)
			}
		}, phase: closed, reason: "quit", closed: []string{"quit"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr := NewManager(4, tc.idle)
			defer mgr.CloseAll()
			mgr.SetCheckpointPolicy(0, 0, tc.restarts)
			params := *tinyParams
			if tc.params != (SessionParams{}) {
				params = tc.params
			}
			s, err := mgr.admit("", params.withDefaults(), nil)
			if err != nil {
				t.Fatalf("admit: %v", err)
			}
			sub := &chanSub{ch: make(chan Event, 64)}
			if err := s.Subscribe(sub); err != nil {
				t.Fatalf("subscribe while booting: %v", err)
			}
			if err := mgr.start(s); (err != nil) != (tc.event == nil) {
				t.Fatalf("start: %v", err)
			}
			if tc.event != nil {
				// Create returns before the birth checkpoint; let the
				// session settle into serving first.
				if _, err := s.do(func(*world.World) any { return nil }); err != nil {
					t.Fatalf("settle: %v", err)
				}
				tc.event(t, mgr, s)
			}
			if tc.phase == closed {
				select {
				case <-s.done:
				case <-time.After(30 * time.Second):
					t.Fatal("session goroutine never exited")
				}
			} else if _, err := s.do(func(*world.World) any { return nil }); err != nil {
				// A barrier: the event's after-reply effects have settled.
				t.Fatalf("barrier: %v", err)
			}

			s.subMu.Lock()
			gotPhase, gotReason := s.phase, s.reason
			s.subMu.Unlock()
			if gotPhase != tc.phase || gotReason != tc.reason {
				t.Errorf("phase %d reason %q, want %d %q", gotPhase, gotReason, tc.phase, tc.reason)
			}
			listed := false
			for _, in := range mgr.List() {
				listed = listed || in.ID == s.ID
			}
			if listed != tc.listed {
				t.Errorf("listed = %v, want %v", listed, tc.listed)
			}
			var got []string
			for len(sub.ch) > 0 {
				if ev := <-sub.ch; ev.Event == "session-closed" {
					got = append(got, ev.Reason)
				}
			}
			if !reflect.DeepEqual(got, tc.closed) {
				t.Errorf("session-closed reasons %q, want %q", got, tc.closed)
			}
		})
	}
}
