package serve

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/world"
)

// migScript is a deterministic command sequence split across the
// migration boundary: the first half runs on the source worker, the
// second on the destination after import.
var migScript = struct{ before, after []string }{
	before: []string{
		"filter pipe catch work",
		"continue",
		"watchdog 250000",
	},
	after: []string{
		"delete catch 1",
		"continue",
		"info links",
	},
}

// TestExportImportByteIdentical is the migration acceptance path: a
// session exported mid-script from one worker and imported on another
// finishes the script with state byte-identical to a session that never
// moved. The source copy must be gone after export (at most one live
// instance), and subscribers must see the "migrated" close.
func TestExportImportByteIdentical(t *testing.T) {
	params := SessionParams{W: 16, H: 16, QP: 8, Seed: 7, Bug: "bad-dc"}

	src := NewManager(4, 0)
	src.SetName("w1")
	dst := NewManager(4, 0)
	dst.SetName("w2")
	solo := NewManager(4, 0)
	defer src.CloseAll()
	defer dst.CloseAll()
	defer solo.CloseAll()

	moved, err := src.CreateWithID("fleet-s1", params)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ref, err := solo.Create(params)
	if err != nil {
		t.Fatalf("create ref: %v", err)
	}
	for _, line := range migScript.before {
		mustExec(t, moved, line)
		mustExec(t, ref, line)
	}

	sub := &chanSub{ch: make(chan Event, 64)}
	moved.Subscribe(sub)
	gotParams, container, err := moved.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if gotParams != params {
		t.Errorf("export params = %+v, want %+v", gotParams, params)
	}
	if len(container) == 0 {
		t.Fatal("export: empty container")
	}
	ev := waitFor(t, sub.ch, "session-closed")
	if ev.Reason != "migrated" {
		t.Errorf("close reason = %q, want migrated", ev.Reason)
	}
	if _, err := src.Get("fleet-s1"); !errors.Is(err, ErrNoSession) {
		t.Errorf("source copy still alive after export: %v", err)
	}

	revived, err := dst.Import("fleet-s1", gotParams, container)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if revived.ID != "fleet-s1" {
		t.Errorf("imported id = %q, want fleet-s1", revived.ID)
	}
	for _, line := range migScript.after {
		mustExec(t, revived, line)
		mustExec(t, ref, line)
	}

	got := finalState(t, revived)
	want := finalState(t, ref)
	if err := ckpt.Diff(want, got); err != nil {
		t.Fatalf("migrated state diverges from solo run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("migrated state not byte-identical to solo run")
	}
}

// TestImportRejectsTamperedContainer proves the byte-compare guarantee:
// an import whose replayed world does not reproduce the container's
// state blob fails with a DivergenceError instead of resuming a
// different world.
func TestImportRejectsTamperedContainer(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	mustExec(t, s, "continue")
	_, container, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	cp, err := ckpt.Decode(container)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	cp.State[len(cp.State)/2] ^= 0x01
	tampered := cp.Encode()

	if _, err := mgr.Import("ghost", SessionParams{}, tampered); err == nil {
		t.Fatal("import of tampered container succeeded")
	} else {
		var de *ckpt.DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want DivergenceError", err)
		}
	}
	if _, err := mgr.Get("ghost"); !errors.Is(err, ErrNoSession) {
		t.Errorf("failed import left a session behind: %v", err)
	}
}

// TestDrainRefusesAdmission: a draining worker admits nothing — not new
// sessions, not migrated-in containers — while existing sessions keep
// serving and exporting.
func TestDrainRefusesAdmission(t *testing.T) {
	mgr := NewManager(4, 0)
	mgr.SetName("w1")
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_, container, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	mgr.StartDrain()
	if !mgr.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	if _, err := mgr.Create(SessionParams{}); !errors.Is(err, ErrDraining) {
		t.Errorf("create while draining: err = %v, want ErrDraining", err)
	}
	if _, err := mgr.Import("w1-s1", SessionParams{}, container); !errors.Is(err, ErrDraining) {
		t.Errorf("import while draining: err = %v, want ErrDraining", err)
	}
}

// TestCreateWithIDDuplicate: explicit ids are pinned, and a taken id is
// an error rather than a silent rename (the router's placement table
// depends on ids being stable).
func TestCreateWithIDDuplicate(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	if _, err := mgr.CreateWithID("pinned", SessionParams{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := mgr.CreateWithID("pinned", SessionParams{}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: err = %v, want ErrDuplicateID", err)
	}
}

// TestWorkerNamePrefixesIDs: two named workers can never mint the same
// generated session id.
func TestWorkerNamePrefixesIDs(t *testing.T) {
	mgr := NewManager(4, 0)
	mgr.SetName("w7")
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if s.ID != "w7-s1" {
		t.Errorf("generated id = %q, want w7-s1", s.ID)
	}
}

// silentHold parks the session goroutine until the returned release is
// called, and returns once it is parked. The hold is not a client
// command: it neither counts as waiting nor moves the idle clock.
func silentHold(t *testing.T, s *Session) (release func(), done <-chan error) {
	t.Helper()
	h := queueHold(s, true)
	select {
	case <-h.entered:
	case err := <-h.done:
		t.Fatalf("hold: %v", err)
	}
	return h.release, h.done
}

// pendingHold is a hold command sent to the session goroutine.
type pendingHold struct {
	entered chan struct{} // closed once the goroutine is parked in it
	release func()        // idempotent
	done    chan error
}

// queueHold sends a hold to the session goroutine: a client command, or
// a silent one that goes through the loop like a reap probe that yields.
func queueHold(s *Session, silent bool) *pendingHold {
	gate := make(chan struct{})
	var once sync.Once
	h := &pendingHold{
		entered: make(chan struct{}),
		release: func() { once.Do(func() { close(gate) }) },
		done:    make(chan error, 1),
	}
	park := func(*world.World) any {
		close(h.entered)
		<-gate
		return nil
	}
	go func() {
		if !silent {
			_, err := s.do(park)
			h.done <- err
			return
		}
		// The loop treats a yielding reap verdict as no use at all.
		run := func(w *world.World) any { park(w); return reapVerdict{} }
		cmd := sessionCmd{run: run, reply: make(chan any, 1), probe: true}
		s.cmds <- cmd
		<-cmd.reply
		h.done <- nil
	}()
	return h
}

// awaitWaiting blocks until n client commands are waiting on s.
func awaitWaiting(t *testing.T, s *Session, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.waiting.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiting = %d, want %d", s.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReapDecidesOnSessionGoroutine stresses the reaper's two promises
// under a reaper spinning with a 1 ns idle timeout:
//   - no acknowledged journaled command is missing from the journal
//     when the session retires;
//   - no reap happens while a client command is waiting.
//
// A probe that lands while nothing runs or waits may legitimately reap
// the session, so the test keeps a client command waiting at every
// command boundary: while the session goroutine is parked in a hold,
// the round's Exec and the next hold queue up behind it, and only then
// is the hold released. Every Exec must be acknowledged.
func TestReapDecidesOnSessionGoroutine(t *testing.T) {
	mgr := NewManager(4, time.Nanosecond)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cur := queueHold(s, false)
	<-cur.entered
	defer func() { cur.release() }() // before CloseAll, if the test fails early

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.ReapIdle()
			}
		}
	}()

	const rounds = 30
	execs := make(chan error, rounds)
	for i := 0; i < rounds; i++ {
		base := s.waiting.Load() // Execs still queued from earlier rounds
		go func() {
			res, err := s.Exec("watchdog 1000000")
			if err == nil {
				err = res.Err
			}
			execs <- err
		}()
		awaitWaiting(t, s, base+1)
		var next *pendingHold
		if i < rounds-1 {
			next = queueHold(s, false)
			awaitWaiting(t, s, base+2)
		}
		cur.release()
		if err := <-cur.done; err != nil {
			t.Fatalf("round %d: hold: %v", i, err)
		}
		if next != nil {
			select {
			case <-next.entered:
			case err := <-next.done:
				t.Fatalf("round %d: reaped while a command was waiting: %v", i, err)
			}
			cur = next
		}
	}
	acked := 0
	for i := 0; i < rounds; i++ {
		if err := <-execs; err != nil {
			t.Errorf("reaped while a command was waiting: %v", err)
			continue
		}
		acked++
	}
	close(stop)
	wg.Wait()

	// Retire the session (the reaper may already have) and read the
	// journal it retired with: a reap between a command's reply and its
	// journal write would lose lines.
	s.Close("test-done")
	if got := s.sup.b.Mgr.JournalLen(); got < acked {
		t.Errorf("journal holds %d entries, want >= %d (acknowledged commands lost)", got, acked)
	}
}

// TestReapYieldsToWaitingCommand pins the reap-yield rule
// deterministically. With the session goroutine parked in a silent
// hold, a client Exec and a 1 ns reap probe both queue up, in either
// order. The probe must be decided on the session goroutine (ReapIdle
// waits for the hold), and it must yield: the Exec is acknowledged and
// the session is still listed. Exec first exercises the "a command ran
// since the pre-filter looked" half of the rule, probe first the "a
// command is waiting" half.
func TestReapYieldsToWaitingCommand(t *testing.T) {
	for _, probeFirst := range []bool{false, true} {
		name := "exec then probe"
		if probeFirst {
			name = "probe then exec"
		}
		t.Run(name, func(t *testing.T) {
			mgr := NewManager(4, time.Nanosecond)
			defer mgr.CloseAll()
			s, err := mgr.Create(*tinyParams)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			release, held := silentHold(t, s)
			defer release() // before CloseAll, if the test fails early
			execErr := make(chan error, 1)
			queueExec := func() {
				go func() {
					_, err := s.Exec("info filters")
					execErr <- err
				}()
				awaitWaiting(t, s, 1)
			}
			if !probeFirst {
				queueExec()
			}
			reaped := make(chan int, 1)
			go func() { reaped <- mgr.ReapIdle() }()
			select {
			case n := <-reaped:
				t.Fatalf("ReapIdle decided (%d) while the session goroutine was busy", n)
			case <-time.After(50 * time.Millisecond):
			}
			if probeFirst {
				queueExec()
			}
			release()
			if err := <-held; err != nil {
				t.Fatalf("hold: %v", err)
			}
			if err := <-execErr; err != nil {
				t.Fatalf("waiting Exec not acknowledged: %v", err)
			}
			if n := <-reaped; n != 0 {
				t.Errorf("ReapIdle reaped %d sessions, want 0", n)
			}
			if _, err := mgr.Get(s.ID); err != nil {
				t.Errorf("session no longer listed: %v", err)
			}
		})
	}
}

// TestReapStillReapsIdleSessions: the on-goroutine verdict must not
// break the reaper's actual job.
func TestReapStillReapsIdleSessions(t *testing.T) {
	mgr := NewManager(4, 20*time.Millisecond)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sub := &chanSub{ch: make(chan Event, 16)}
	s.Subscribe(sub)
	deadline := time.After(30 * time.Second)
	for mgr.ReapIdle() == 0 {
		select {
		case <-deadline:
			t.Fatal("idle session never reaped")
		case <-time.After(5 * time.Millisecond):
		}
	}
	ev := waitFor(t, sub.ch, "session-closed")
	if ev.Reason != "idle-timeout" {
		t.Errorf("close reason = %q, want idle-timeout", ev.Reason)
	}
}
