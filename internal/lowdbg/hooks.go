package lowdbg

import (
	"fmt"
	"time"

	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// DataCall is the typed argument record of one data-exchange call
// (pedf_link_push/pop and the control-link variants). A runtime keeps
// one per link and direction, fills the fixed fields once and refreshes
// Index and Value on every call, so announcing a token through EnterData
// builds nothing: Typed breakpoints (the dataflow layer's) read the
// record through StopCtx.Data, and the GDB-style []Arg is built only
// when an armed breakpoint on the symbol is not typed.
type DataCall struct {
	Link    int64
	Src     string
	SrcPort string
	Dst     string
	DstPort string
	Index   uint64
	// Push marks a push, whose argument list carries the value.
	Push bool
	// Value is the pushed value (set before EnterData) or the popped
	// value (set before ExitData). It aliases the caller's storage,
	// which later statements and firings overwrite: a handler that
	// keeps it must clone it.
	Value filterc.Value

	fr frame
}

// Args builds the call's GDB-style argument list: link, src, src_port,
// dst, dst_port, index and, for a push, a private copy of value.
func (c *DataCall) Args() []Arg {
	args := []Arg{
		{Name: "link", Val: c.Link},
		{Name: "src", Val: c.Src},
		{Name: "src_port", Val: c.SrcPort},
		{Name: "dst", Val: c.Dst},
		{Name: "dst_port", Val: c.DstPort},
		{Name: "index", Val: int64(c.Index)},
	}
	if c.Push {
		args = append(args, Arg{Name: "value", Val: c.Value.Clone()})
	}
	return args
}

// frame is one intercepted call's breakpoint state between its entry and
// its return. A DataCall embeds its frame, so a data call reuses it.
type frame struct {
	ctx    StopCtx
	fin    []*Breakpoint // finish actions to run at the return
	boxRet bool          // a pending finish action is untyped: it reads ctx.Ret
}

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
// function breakpoint armed anywhere, the cost is one armed-count
// compare (the measurable always-attached overhead); with breakpoints on
// fn, their actions run and may stop the world.
func (d *Debugger) EnterFunc(p *sim.Proc, fn string, build func() []Arg) func(ret any) {
	d.HookCalls++
	if d.armedFunc == 0 {
		return nil
	}
	bps, untyped := d.liveOn(fn)
	if bps == nil {
		return nil
	}
	fr := new(frame)
	if !d.hit(fr, bps, untyped, p, fn, build, nil) {
		return nil
	}
	return func(ret any) { d.exit(fr, ret) }
}

// EnterData is EnterFunc for a data-exchange call described by a typed
// record. It reports whether finish actions are pending, in which case
// the caller must call ExitData at the call's return (after setting
// c.Value, for a pop).
func (d *Debugger) EnterData(p *sim.Proc, fn string, c *DataCall) bool {
	d.HookCalls++
	if d.armedFunc == 0 {
		return false
	}
	bps, untyped := d.liveOn(fn)
	if bps == nil {
		return false
	}
	return d.hit(&c.fr, bps, untyped, p, fn, nil, c)
}

// ExitData runs the finish actions EnterData left pending on c. An
// untyped finisher of a pop sees c.Value as ctx.Ret.
func (d *Debugger) ExitData(c *DataCall) {
	var ret any
	if c.fr.boxRet && !c.Push {
		ret = c.Value
	}
	d.exit(&c.fr, ret)
}

// runs reports whether bp takes part in a hit: enabled, and not a data
// breakpoint gated off by mitigation option 1.
func (d *Debugger) runs(bp *Breakpoint) bool {
	return bp.Enabled && !(bp.IsData && !d.DataBreakpointsEnabled)
}

// liveOn returns fn's breakpoints when at least one of them runs (nil
// otherwise), and whether a running one is untyped. When every
// breakpoint on fn is disabled or gated out, this loop is the only cost:
// no allocation, no action dispatch.
func (d *Debugger) liveOn(fn string) (bps []*Breakpoint, untyped bool) {
	bps = d.funcBPs[fn]
	active := false
	for _, bp := range bps {
		if d.runs(bp) {
			active = true
			untyped = untyped || !bp.Typed
		}
	}
	if !active {
		return nil, false
	}
	return bps, untyped
}

// hit runs fn's breakpoints for one call in frame fr and reports whether
// finish actions are pending. The argument list is built only for an
// untyped breakpoint, or for a call without a typed record.
func (d *Debugger) hit(fr *frame, bps []*Breakpoint, untyped bool, p *sim.Proc, fn string,
	build func() []Arg, data *DataCall) bool {
	var args []Arg
	switch {
	case data == nil && build != nil:
		args = build()
	case data != nil && untyped:
		args = data.Args()
	}
	// Live intrusiveness accounting (only while observed: the time.Now
	// pair costs more than the handlers it measures on the fast path).
	rec := d.K.Observer()
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	fr.ctx = StopCtx{Dbg: d, Proc: p, Fn: fn, Args: args, Data: data}
	fr.fin = fr.fin[:0]
	fr.boxRet = false
	var stopBp *Breakpoint
	active := 0
	// Ranging over bps is safe while actions remove breakpoints: removal
	// replaces the symbol's slice instead of shifting it in place.
	for _, bp := range bps {
		if !d.runs(bp) {
			continue
		}
		active++
		if bp.Condition != nil && !bp.Condition(&fr.ctx) {
			continue
		}
		bp.HitCount++
		disp := DispStop
		if bp.Action != nil {
			disp = bp.Action(&fr.ctx)
		} else if bp.Internal {
			disp = DispContinue
		}
		if disp == DispStop && stopBp == nil {
			stopBp = bp
		}
		if bp.OnReturn != nil {
			fr.fin = append(fr.fin, bp)
			fr.boxRet = fr.boxRet || !bp.Typed
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
		if args == nil && data != nil {
			args = data.Args() // a stop reports the full call
		}
		kind := StopBreakpoint
		if stopBp.Internal {
			kind = StopAction
		}
		reason := fmt.Sprintf("Breakpoint %d, %s (%s)", stopBp.ID, fn, formatArgs(args))
		if stopBp.Note != "" {
			reason = stopBp.Note
		}
		if fr.ctx.StopNote != "" {
			reason = fr.ctx.StopNote
		}
		d.stopWorld(p, &StopEvent{
			Kind: kind, Reason: reason, Proc: p, Fn: fn, Bp: stopBp, Args: args,
		})
	}
	return len(fr.fin) > 0
}

// exit runs the finish actions pending in fr with return value ret.
func (d *Debugger) exit(fr *frame, ret any) {
	ctx := &fr.ctx
	ctx.Ret, ctx.IsReturn, ctx.StopNote = ret, true, ""
	for _, bp := range fr.fin {
		if !d.runs(bp) {
			continue
		}
		if bp.OnReturn(ctx) == DispStop {
			args := ctx.Args
			if c := ctx.Data; c != nil {
				if args == nil {
					args = c.Args()
				}
				if ret == nil && !c.Push {
					ret = c.Value
				}
			}
			reason := fmt.Sprintf("Finish breakpoint %d, %s returned %v", bp.ID, ctx.Fn, ret)
			if bp.Note != "" {
				reason = bp.Note
			}
			if ctx.StopNote != "" {
				reason = ctx.StopNote
			}
			d.stopWorld(ctx.Proc, &StopEvent{
				Kind: StopAction, Reason: reason, Proc: ctx.Proc, Fn: ctx.Fn,
				Bp: bp, Args: args, Ret: ret, IsReturn: true,
			})
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
		// Safe while actions remove breakpoints (removal copies).
		for _, bp := range bps {
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
