package lowdbg

import (
	"fmt"
	"time"

	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// EnterFunc is the target-program surface: the PEDF runtime calls it at
// the entry of every framework API function and of every WORK method,
// passing the mangled symbol and a builder for the parsed arguments. The
// builder (nil means no arguments) runs only when an enabled breakpoint
// on fn will see the arguments, so a caller pays for building them only
// then. The returned closure (nil when nobody listens) must be invoked
// at the function's return with the return value — that is how finish
// breakpoints fire.
//
// This models GDB planting breakpoints at function addresses: with no
// breakpoint on fn, the cost is one map lookup (the measurable
// always-attached overhead); with breakpoints, their actions run and may
// stop the world.
func (d *Debugger) EnterFunc(p *sim.Proc, fn string, build func() []Arg) func(ret any) {
	d.HookCalls++
	// Armed-count fast path: with no function breakpoint planted anywhere
	// the cost is one integer compare — no map lookup, no hashing of fn.
	if d.armedFunc == 0 {
		return nil
	}
	bps := d.funcBPs[fn]
	if len(bps) == 0 {
		return nil
	}
	// Cheap pre-scan: when every breakpoint on fn is disabled or gated
	// out (mitigation option 1), the only cost is this loop — no
	// allocation, no action dispatch.
	active := 0
	for _, bp := range bps {
		if bp.Enabled && !(bp.IsData && !d.DataBreakpointsEnabled) {
			active++
		}
	}
	if active == 0 {
		return nil
	}
	var args []Arg
	if build != nil {
		args = build()
	}
	// Live intrusiveness accounting (only while observed: the time.Now
	// pair costs more than the handlers it measures on the fast path).
	rec := d.K.Observer()
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	ctx := &StopCtx{Dbg: d, Proc: p, Fn: fn, Args: args}
	var finishers []*Breakpoint
	var stopBp *Breakpoint
	// Iterate over a snapshot: actions may remove breakpoints.
	snapshot := make([]*Breakpoint, len(bps))
	copy(snapshot, bps)
	for _, bp := range snapshot {
		if !bp.Enabled {
			continue
		}
		if bp.IsData && !d.DataBreakpointsEnabled {
			continue
		}
		if bp.Condition != nil && !bp.Condition(ctx) {
			continue
		}
		bp.HitCount++
		disp := DispStop
		if bp.Action != nil {
			disp = bp.Action(ctx)
		} else if bp.Internal {
			disp = DispContinue
		}
		if disp == DispStop && stopBp == nil {
			stopBp = bp
		}
		if bp.OnReturn != nil {
			finishers = append(finishers, bp)
		}
		if bp.Temporary {
			d.removeBp(bp)
		}
	}
	if rec != nil {
		host := uint64(time.Since(t0))
		d.bpHits++
		d.bpHostNS += host
		if d.bpHist != nil {
			d.bpHist.Observe(float64(host))
		}
		if rec.Wants(obs.KBpHit) {
			rec.Record(obs.Event{
				At: uint64(d.K.Now()), Kind: obs.KBpHit, PE: -1,
				Arg: int64(host), Arg2: int64(active), Actor: fn,
			})
		}
	}
	if stopBp != nil {
		kind := StopBreakpoint
		if stopBp.Internal {
			kind = StopAction
		}
		reason := fmt.Sprintf("Breakpoint %d, %s (%s)", stopBp.ID, fn, formatArgs(args))
		if stopBp.Note != "" {
			reason = stopBp.Note
		}
		if ctx.StopNote != "" {
			reason = ctx.StopNote
		}
		d.stopWorld(p, &StopEvent{
			Kind: kind, Reason: reason, Proc: p, Fn: fn, Bp: stopBp, Args: args,
		})
	}
	if len(finishers) == 0 {
		return nil
	}
	return func(ret any) {
		rctx := &StopCtx{Dbg: d, Proc: p, Fn: fn, Args: args, Ret: ret, IsReturn: true}
		for _, bp := range finishers {
			if !bp.Enabled {
				continue
			}
			if bp.IsData && !d.DataBreakpointsEnabled {
				continue
			}
			if bp.OnReturn(rctx) == DispStop {
				reason := fmt.Sprintf("Finish breakpoint %d, %s returned %v", bp.ID, fn, ret)
				if bp.Note != "" {
					reason = bp.Note
				}
				if rctx.StopNote != "" {
					reason = rctx.StopNote
				}
				d.stopWorld(p, &StopEvent{
					Kind: StopAction, Reason: reason, Proc: p, Fn: fn,
					Bp: bp, Args: args, Ret: ret, IsReturn: true,
				})
			}
		}
	}
}

func formatArgs(args []Arg) string {
	s := ""
	for i, a := range args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// interpHooks routes filterc statement/call events into the debugger:
// line breakpoints, watchpoint checks and step requests. It chains to
// whatever hooks the runtime installed first (compute-cost charging).
type interpHooks struct {
	d     *Debugger
	p     *sim.Proc
	chain filterc.Hooks
}

func (h *interpHooks) OnStmt(fr *filterc.Frame, pos filterc.Pos) {
	if h.chain != nil {
		h.chain.OnStmt(fr, pos)
	}
	d := h.d
	d.HookCalls++

	// Armed-count fast path: with no line breakpoint, watchpoint or step
	// request anywhere, a statement costs a counter bump and one integer
	// compare. The lineKey string is only materialized further down.
	if d.armedStmt == 0 {
		return
	}
	if bps := d.lineBPs[lineKey(pos.File, pos.Line)]; len(bps) > 0 {
		ctx := &StopCtx{Dbg: d, Proc: h.p, Fn: fr.FuncName(), Pos: pos, Frame: fr}
		snapshot := make([]*Breakpoint, len(bps))
		copy(snapshot, bps)
		for _, bp := range snapshot {
			if !bp.Enabled {
				continue
			}
			if bp.Condition != nil && !bp.Condition(ctx) {
				continue
			}
			bp.HitCount++
			disp := DispStop
			if bp.Action != nil {
				disp = bp.Action(ctx)
			} else if bp.Internal {
				disp = DispContinue
			}
			if bp.Temporary {
				d.removeBp(bp)
			}
			if disp == DispStop {
				d.clearStep()
				d.stopWorld(h.p, &StopEvent{
					Kind: StopBreakpoint,
					Reason: fmt.Sprintf("Breakpoint %d, %s () at %s:%d",
						bp.ID, fr.FuncName(), pos.File, pos.Line),
					Proc: h.p, Fn: fr.FuncName(), Pos: pos, Bp: bp,
				})
				return
			}
		}
	}

	// Watchpoints (software: compare on every statement).
	for _, w := range d.watchpoints {
		if !w.Enabled {
			continue
		}
		if !w.val.Equal(w.old) {
			oldS := w.old.String()
			w.old = w.val.Clone()
			w.HitCount++
			d.clearStep()
			d.stopWorld(h.p, &StopEvent{
				Kind: StopWatchpoint,
				Reason: fmt.Sprintf("Watchpoint %d: %s changed %s -> %s",
					w.ID, w.Sym, oldS, w.val.String()),
				Proc: h.p, Fn: fr.FuncName(), Pos: pos,
			})
			return
		}
	}

	// Step requests.
	if d.stepKind == stepNone || d.stepProc != h.p {
		return
	}
	in := d.interps[h.p]
	if in == nil {
		return
	}
	depth := in.Depth()
	hit := false
	switch d.stepKind {
	case stepInto:
		hit = depth != d.stepDepth || pos.Line != d.stepLine || pos.File != d.stepFile
	case stepOver:
		hit = depth < d.stepDepth ||
			(depth == d.stepDepth && (pos.Line != d.stepLine || pos.File != d.stepFile))
	case stepOut:
		hit = depth < d.stepDepth
	}
	if hit {
		d.clearStep()
		d.stopWorld(h.p, &StopEvent{
			Kind:   StopStep,
			Reason: fmt.Sprintf("%s () at %s:%d", fr.FuncName(), pos.File, pos.Line),
			Proc:   h.p, Fn: fr.FuncName(), Pos: pos,
		})
	}
}

func (h *interpHooks) OnEnter(fr *filterc.Frame) {
	if h.chain != nil {
		h.chain.OnEnter(fr)
	}
}

func (h *interpHooks) OnExit(fr *filterc.Frame, ret filterc.Value) {
	if h.chain != nil {
		h.chain.OnExit(fr, ret)
	}
}
