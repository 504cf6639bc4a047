package dfdbg

import (
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

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

// attachedWorld is the solo debugger world the dfdbg REPL and a dfserve
// session boot: core attached, dataflow events recorded with payloads,
// a CLI on top. It is the ckpt.Target its manager rebuilds on restore.
type attachedWorld struct {
	k   *sim.Kernel
	m   *mach.Machine
	rt  *pedf.Runtime
	rec *obs.Recorder
	d   *core.Debugger
	c   *cli.CLI
}

func (w *attachedWorld) ReplayExec(line string) { w.c.Dispatch(line) }
func (w *attachedWorld) CaptureState() ([]byte, error) {
	return ckpt.CaptureStack(w.k, w.m, w.rt, w.rec)
}
func (w *attachedWorld) Shutdown() { _ = w.k.Shutdown() }

// buildAttached boots one world. batched enables the batched engine;
// leaving it out gives the per-token reference.
func buildAttached(p h264.Params, bits []byte, batched bool) (*attachedWorld, error) {
	k := sim.NewKernel()
	rec := obs.NewRecorder(1 << 16)
	rec.EnableKinds(obs.MaskDataflow)
	rec.SetPayloads(true)
	k.SetObserver(rec)
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
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
	if batched {
		if _, err := pedfgraph.EnableBatch(rt, "h264"); err != nil {
			return nil, err
		}
	}
	c.Batch = rt.RegionModes
	return &attachedWorld{k: k, m: m, rt: rt, rec: rec, d: d, c: c}, nil
}

// modelDigest renders core's model: per-link counts and tokens in
// flight, and every actor's state and last token with its provenance.
func modelDigest(d *core.Debugger) string {
	var b strings.Builder
	path := func(t *core.Token) string {
		var s strings.Builder
		fmt.Fprintf(&s, "tok%d", t.ID)
		for _, h := range t.Path() {
			fmt.Fprintf(&s, " <%d@%d %s>", h.Seq, h.At, h)
		}
		return s.String()
	}
	for _, l := range d.Links() {
		fmt.Fprintf(&b, "%s pushed=%d popped=%d\n", l, l.TotalPushed, l.TotalPopped)
		for _, t := range l.Tokens {
			fmt.Fprintf(&b, "  %s\n", path(t))
		}
	}
	for _, a := range d.Actors() {
		fmt.Fprintf(&b, "%s blocked=%q\n", a, a.BlockedOn())
		if a.LastToken != nil {
			fmt.Fprintf(&b, "  last %s\n", path(a.LastToken))
		}
	}
	return b.String()
}

// lastID is the id the previous command announced; a script line's
// "$ID" stands for it.
var lastID = regexp.MustCompile(`(?:Breakpoint|Watchpoint|Catchpoint) (\d+)`)

// runAttached runs a script on a fresh world and returns one rendering
// per command: its output, error, stop and core's model afterwards. It
// also reports whether any command resumed the decode while the regions
// ran batched.
func runAttached(t *testing.T, p h264.Params, bits []byte, batched bool,
	script []string) ([]string, bool) {
	t.Helper()
	mgr := ckpt.NewManager(func() (ckpt.Target, error) { return buildAttached(p, bits, batched) })
	first, err := mgr.Build()
	if err != nil {
		t.Fatal(err)
	}
	cur := first.(*attachedWorld)
	defer func() { cur.Shutdown() }()
	var swap *attachedWorld
	wire := func(w *attachedWorld) {
		w.c.Ckpt = &cli.CkptHooks{
			Save: func(label string) (ckpt.Info, error) {
				cp, err := mgr.Capture(w, label, uint64(w.k.Now()), 0)
				if err != nil {
					return ckpt.Info{}, err
				}
				return cp.Info(), nil
			},
			Restore: func(id int) (ckpt.Info, error) {
				cp := mgr.Find(id)
				if cp == nil {
					return ckpt.Info{}, fmt.Errorf("no checkpoint #%d", id)
				}
				nt, err := mgr.Restore(cp)
				if err != nil {
					return ckpt.Info{}, err
				}
				swap = nt.(*attachedWorld)
				return cp.Info(), nil
			},
		}
	}
	wire(cur)

	out := make([]string, len(script))
	ranBatched := false
	id := ""
	for i, line := range script {
		line = strings.ReplaceAll(line, "$ID", id)
		modes := cur.rt.RegionModes()
		wasBatched := len(modes) > 0 && modes[0].Batched
		before := cur.k.Now()
		res := cur.c.Dispatch(line)
		if res.Err != nil {
			t.Fatalf("batched=%v %q: %v", batched, line, res.Err)
		}
		if ckpt.Journaled(line) {
			mgr.Note(line)
		}
		if swap != nil {
			cur.Shutdown()
			cur, swap = swap, nil
			wire(cur)
		} else if wasBatched && cur.k.Now() > before {
			ranBatched = true
		}
		if m := lastID.FindStringSubmatch(res.Output); m != nil {
			id = m[1]
		}
		var b strings.Builder
		fmt.Fprintf(&b, ">>> %s\n%s", line, res.Output)
		if s := res.Stop; s != nil {
			fmt.Fprintf(&b, "stop: %s %q proc=%s fn=%s at %s:%d t=%d\n",
				s.Kind, s.Reason, s.Proc, s.Fn, s.File, s.Line, s.TimeNS)
		}
		fmt.Fprintf(&b, "now=%d\n%s", cur.k.Now(), modelDigest(cur.d))
		out[i] = b.String()
	}
	return out, ranBatched
}

// attachedScripts are the debug sessions of the attached gate. Each one
// arms something that can stop the world, stops, inspects, and lets at
// least part of the decode run with nothing armed.
var attachedScripts = map[string][]string{
	// The dfbench session shape.
	"session": {"info filters", "filter pipe catch work",
		"continue", "continue", "continue", "continue",
		"continue", "continue", "continue", "continue",
		"filter pipe info last_token", "info links", "trace 30", "graph",
		"fault status", "delete catch 1", "continue", "analyze"},
	// A stop outside the region exposes region actors' positions.
	"outside": {"filter bh catch work", "continue", "continue", "info threads",
		"thread 5", "backtrace", "filter ipred info state", "delete catch 1",
		"continue", "info threads"},
	"scheduled": {"filter mb catch scheduled", "continue", "info threads",
		"continue", "filter red info state", "delete catch 1", "continue", "info threads"},
	"receive": {"filter ipf catch *in=1", "continue", "continue",
		"filter ipf info last_token", "info threads", "delete catch 1", "continue"},
	"content": {"iface ipf::pipe_in catch 2", "continue", "info threads",
		"filter mb info state", "delete catch 1", "continue"},
	"module-step": {"module pred catch step", "continue", "continue", "info threads",
		"delete catch 1", "continue", "module front catch step end", "continue",
		"info threads"},
	"line-next": {"tbreak ipf.c:25", "continue", "next", "next", "backtrace",
		"info threads", "continue", "info threads"},
	"watch": {"filter mb watch izz_total", "continue", "continue", "info threads",
		"delete $ID", "continue", "info threads"},
	"step-both": {"step_both pipe::pipe_ipf_out", "continue", "info threads",
		"continue", "info threads", "filter ipf info state", "continue"},
	"freeze": {"filter ipf catch work", "continue", "delete catch 1",
		"filter ipf freeze", "continue", "info threads", "info links",
		"filter ipf thaw", "continue", "info threads"},
	"checkpoint": {"filter pipe catch work", "continue", "checkpoint", "delete catch 1",
		"continue", "info threads", "restore 1", "info threads", "continue",
		"filter pipe info last_token", "delete catch 1", "continue", "info links"},
}

// TestBatchDifferentialAttached is the differential gate for batching
// under an attached dataflow debugger (DESIGN §12): every script runs
// on a world with the batched engine and on a per-token reference, and
// every command's output, stop and time, plus core's model after it,
// must match byte for byte. Each script must resume the decode at least
// once while the regions run batched, so the gate cannot pass
// vacuously.
func TestBatchDifferentialAttached(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		t.Fatal(err)
	}
	for name, script := range attachedScripts {
		t.Run(name, func(t *testing.T) {
			ref, _ := runAttached(t, p, bits, false, script)
			bat, ranBatched := runAttached(t, p, bits, true, script)
			for i := range ref {
				if ref[i] != bat[i] {
					t.Fatalf("command %d differs:\n--- per-token ---\n%s--- batched ---\n%s",
						i, ref[i], bat[i])
				}
			}
			if !ranBatched {
				t.Fatal("no command resumed the decode while batched: the gate compared nothing")
			}
		})
	}
}
