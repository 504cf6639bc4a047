// Package world is the one place a debug world is built, checkpointed
// and swapped (DESIGN §13). A World is the full stack every front end
// drives — kernel, observability ring, machine, PEDF runtime with the
// H.264 case study, the dataflow debugger and a CLI over it — booted
// from a single recipe, so the dfdbg REPL, a dfserve session and the
// chaos gauntlet debug, restore and verify the same world.
//
// A Binding puts a World under checkpoint control: it owns the
// ckpt.Manager, the live world and a staged swap, installs the
// checkpoint commands on the CLI, journals successful state-mutating
// command lines, and records the KCheckpoint/KRestore marks.
package world

import (
	"fmt"
	"io"
	"time"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// World is one fully built debug world. It is the ckpt.Target the
// checkpoint manager rebuilds during restore and reverse execution, so
// everything in it must come out identical when built twice from the
// same recipe.
type World struct {
	K   *sim.Kernel
	Rec *obs.Recorder
	M   *mach.Machine
	RT  *pedf.Runtime
	D   *core.Debugger
	CLI *cli.CLI
}

// Build boots a world: the H.264 case study for p with bug injected,
// started, with the framework initialization phase run so the graph is
// reconstructed before the first command (the paper's init-phase
// interception), and the batched engine armed. preInit, when non-nil,
// runs after Start and before the init phase — the place to arm
// faults whose dispatch and DMA counters must include the init phase.
func Build(p h264.Params, bug h264.Bug, preInit func(*sim.Kernel, *pedf.Runtime) error) (w *World, err error) {
	k := sim.NewKernel()
	defer func() {
		if err != nil {
			_ = k.Shutdown()
		}
	}()
	rec := obs.NewRecorder(1 << 16)
	// The `trace` queries read token traffic, with payloads, from the ring.
	rec.EnableKinds(obs.MaskDataflow)
	rec.SetPayloads(true)
	k.SetObserver(rec)
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		return nil, err
	}
	if _, err := h264.BuildVariant(rt, p, bits, bug); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	if preInit != nil {
		if err := preInit(k, rt); err != nil {
			return nil, err
		}
	}
	if _, err := k.RunUntil(0); err != nil {
		return nil, err
	}
	c := cli.New(d, io.Discard)
	c.Obs = rec
	c.Targets = rt.FaultTargets()
	c.Full = func() (*analysis.Report, *analysis.Graph, error) {
		return pedfgraph.Analyze(rt, "h264")
	}
	// Arm the batched engine: proven-SDF regions run schedule-driven
	// while nothing armed can stop the world, and demote to the
	// per-token path the moment something can (DESIGN §12). `batch`
	// shows the live per-region mode.
	if _, err := pedfgraph.EnableBatch(rt, "h264"); err != nil {
		return nil, err
	}
	c.Batch = rt.RegionModes
	return &World{K: k, Rec: rec, M: m, RT: rt, D: d, CLI: c}, nil
}

// ReplayExec implements ckpt.Target.
func (w *World) ReplayExec(line string) { w.CLI.Dispatch(line) }

// CaptureState implements ckpt.Target.
func (w *World) CaptureState() ([]byte, error) {
	return ckpt.CaptureStack(w.K, w.M, w.RT, w.Rec)
}

// Shutdown implements ckpt.Target: it unwinds the kernel's goroutines.
// Kernel.Shutdown fails only while the kernel runs, which it never does
// between commands.
func (w *World) Shutdown() { _ = w.K.Shutdown() }

// Report runs the full static analysis over the world's runtime.
func (w *World) Report() (*analysis.Report, error) {
	rep, _, err := pedfgraph.Analyze(w.RT, "h264")
	return rep, err
}

// mark records a checkpoint-lifecycle event in w's ring. The state
// encoder skips these kinds, so marks never perturb replay checks.
func (w *World) mark(kind obs.Kind, cpID int) {
	w.Rec.Record(obs.Event{At: uint64(w.K.Now()), Kind: kind, Arg: int64(cpID)})
}

// Binding is a world under checkpoint control. It is not
// goroutine-safe: the owner — the REPL's dispatch lock, a serve
// session goroutine, the chaos loop — serializes every call.
type Binding struct {
	Mgr *ckpt.Manager
	// Cur is the live world.
	Cur *World
	// Saved, when set, runs after every capture Save takes, whether the
	// `checkpoint` command or the owner asked for it.
	Saved func(*ckpt.Checkpoint)

	swap  *World // staged by a restore-class command, installed by Adopt
	since int    // journaled lines since the last Save
}

// Bind puts w under checkpoint control. build rebuilds the world from
// the same recipe for restore and reverse execution.
func Bind(w *World, build func() (*World, error)) *Binding {
	b := newBinding(build)
	b.install(w)
	return b
}

// Import binds the world a migrated-in container describes: a fresh
// world is built, cp's journal replayed over it and the result
// byte-compared against cp's state (ckpt.Manager.Adopt). cp becomes the
// recovery floor.
func Import(cp *ckpt.Checkpoint, build func() (*World, error)) (*Binding, error) {
	b := newBinding(build)
	t, err := b.Mgr.Adopt(cp)
	if err != nil {
		return nil, err
	}
	w := t.(*World)
	b.install(w)
	w.mark(obs.KRestore, cp.ID)
	return b, nil
}

func newBinding(build func() (*World, error)) *Binding {
	return &Binding{Mgr: ckpt.NewManager(func() (ckpt.Target, error) {
		w, err := build()
		if err != nil {
			return nil, err
		}
		return w, nil
	})}
}

// install makes w the live world and puts the checkpoint commands on
// its CLI.
func (b *Binding) install(w *World) {
	b.Cur = w
	w.CLI.Ckpt = &cli.CkptHooks{
		Save: b.Save,
		List: b.Mgr.List,
		Restore: func(id int) (ckpt.Info, error) {
			cp := b.Mgr.Latest()
			if id != 0 {
				cp = b.Mgr.Find(id)
			}
			if cp == nil {
				return ckpt.Info{}, fmt.Errorf("no such checkpoint (see `checkpoints')")
			}
			return b.Restore(cp)
		},
		ReverseStep: func() error {
			t, err := b.Mgr.ReverseStep()
			if err != nil {
				return err
			}
			b.stage(t.(*World), 0)
			return nil
		},
		ReverseContinue: func() (ckpt.Info, error) {
			cp := b.Mgr.Latest()
			if cp == nil {
				return ckpt.Info{}, fmt.Errorf("no checkpoint to reverse-continue to")
			}
			return b.Restore(cp)
		},
	}
}

// Exec dispatches line on the live world and journals it on success.
func (b *Binding) Exec(line string) cli.Result {
	res := b.Cur.CLI.Dispatch(line)
	b.Note(line, res)
	return res
}

// Note applies journal-after-success to a dispatched line: a
// state-mutating line that succeeded is journaled; a line that errored
// (or panicked, and so has no result) never is, so replay cannot
// re-crash.
func (b *Binding) Note(line string, res cli.Result) {
	if res.Err == nil && ckpt.Journaled(line) {
		b.Mgr.Note(line)
		b.since++
	}
}

// Since returns how many lines were journaled since the last Save.
func (b *Binding) Since() int { return b.since }

// Save captures a checkpoint of the live world and marks it there.
func (b *Binding) Save(label string) (ckpt.Info, error) {
	w := b.Cur
	cp, err := b.Mgr.Capture(w, label, uint64(w.K.Now()), time.Now().UnixNano())
	if err != nil {
		return ckpt.Info{}, err
	}
	b.since = 0
	w.mark(obs.KCheckpoint, cp.ID)
	if b.Saved != nil {
		b.Saved(cp)
	}
	return cp.Info(), nil
}

// Restore rebuilds the world at cp with replay verification and stages
// it for Adopt.
func (b *Binding) Restore(cp *ckpt.Checkpoint) (ckpt.Info, error) {
	t, err := b.Mgr.Restore(cp)
	if err != nil {
		return ckpt.Info{}, err
	}
	b.stage(t.(*World), cp.ID)
	return cp.Info(), nil
}

// stage parks a rebuilt world for Adopt and marks the restore in it.
func (b *Binding) stage(w *World, cpID int) {
	w.mark(obs.KRestore, cpID)
	b.swap = w
}

// Adopt installs the staged world, if any, and reports whether it did.
// The owner calls it once the command that staged the world has
// replied, so that command answers from the old world and every later
// one runs on the new. rebind, when non-nil, repoints the owner's own
// surfaces at the new world before the old one is torn down.
func (b *Binding) Adopt(rebind func(*World)) bool {
	w := b.swap
	if w == nil {
		return false
	}
	b.swap = nil
	old := b.Cur
	b.install(w)
	if rebind != nil {
		rebind(w)
	}
	old.Shutdown()
	return true
}
