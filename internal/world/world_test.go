package world

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/h264"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

var tiny = h264.Params{W: 16, H: 16, QP: 8, Seed: 7}

func build() (*World, error) { return Build(tiny, h264.BugNone, nil) }

// marks counts the checkpoint-lifecycle events in w's ring.
func marks(w *World) (ckpts, restores int) {
	for _, ev := range w.Rec.Snapshot() {
		switch ev.Kind {
		case obs.KCheckpoint:
			ckpts++
		case obs.KRestore:
			restores++
		}
	}
	return ckpts, restores
}

// settle waits for the goroutine count to drop back to base.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%s: %d goroutines, want <= %d (leak)", what, n, base)
	}
}

// Two worlds built from the same recipe are the same world: the state
// a restore verifies against does not depend on which build it came
// from, and the init phase already reconstructed the graph.
func TestBuildDeterministic(t *testing.T) {
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	sa, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Diff(sa, sb); err != nil {
		t.Fatalf("two builds diverged: %v", err)
	}
	if len(a.D.Actors()) == 0 || a.CLI.Ckpt != nil {
		t.Errorf("built world: %d actors, ckpt hooks %v; want a reconstructed graph and no hooks before Bind",
			len(a.D.Actors()), a.CLI.Ckpt)
	}
}

// The pre-init step runs before the init phase, and a failing one
// fails the build without leaking the kernel.
func TestBuildPreInit(t *testing.T) {
	base := runtime.NumGoroutine()
	atPreInit := -1
	w, err := Build(tiny, h264.BugNone, func(k *sim.Kernel, _ *pedf.Runtime) error {
		atPreInit = k.Observer().Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if atPreInit != 0 || w.Rec.Len() == 0 {
		t.Errorf("pre-init saw %d events, built world %d; want none and the init phase's",
			atPreInit, w.Rec.Len())
	}
	w.Shutdown()
	want := errors.New("pre-init refused")
	if _, err := Build(tiny, h264.BugNone, func(*sim.Kernel, *pedf.Runtime) error { return want }); err != want {
		t.Errorf("failing pre-init: err = %v, want %v", err, want)
	}
	settle(t, base, "after builds")
}

// Every checkpoint-lifecycle event leaves exactly one mark: a save one
// KCheckpoint in the live world, and each restore-class command or
// import one KRestore in the world it stages. Adopt tears the replaced
// world down.
func TestBindingMarksAndAdopt(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b := Bind(w, build)
	var saved []int
	b.Saved = func(cp *ckpt.Checkpoint) { saved = append(saved, cp.ID) }
	if _, err := b.Save("boot"); err != nil {
		t.Fatal(err)
	}
	exec := func(line string) {
		t.Helper()
		if res := b.Exec(line); res.Err != nil {
			t.Fatalf("%q: %v", line, res.Err)
		}
	}
	want := func(what string, ckpts, restores int) {
		t.Helper()
		if c, r := marks(b.Cur); c != ckpts || r != restores {
			t.Errorf("%s: %d checkpoint / %d restore marks, want %d / %d", what, c, r, ckpts, restores)
		}
	}
	want("boot", 1, 0)
	exec("filter pipe catch work")
	if b.Since() != 1 {
		t.Errorf("since = %d after one journaled line, want 1", b.Since())
	}
	exec("checkpoint a")
	want("checkpoint a", 2, 0)
	if b.Since() != 0 || len(saved) != 2 {
		t.Errorf("since = %d, Saved ran for %v; want 0 and both captures", b.Since(), saved)
	}
	exec("continue")
	exec("continue")
	for _, line := range []string{"reverse-step", "reverse-continue", "restore 1"} {
		old := b.Cur
		exec(line)
		if b.Cur != old {
			t.Fatalf("%q swapped the world before Adopt", line)
		}
		if !b.Adopt(nil) || b.Cur == old || b.Cur.CLI.Ckpt == nil {
			t.Fatalf("%q: Adopt did not install the staged world", line)
		}
		want(line, 0, 1)
	}
	if b.Adopt(nil) {
		t.Error("Adopt swapped with nothing staged")
	}

	cp, err := b.Mgr.Capture(b.Cur, "migrate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := Import(cp, build)
	if err != nil {
		t.Fatal(err)
	}
	if c, r := marks(imp.Cur); c != 0 || r != 1 {
		t.Errorf("import: %d checkpoint / %d restore marks, want 0 / 1", c, r)
	}
	imp.Cur.Shutdown()
	b.Cur.Shutdown()
	settle(t, base, "after teardown")
}
