// Package script implements the quantified version of the paper's
// qualitative analysis (Section VI-F, experiment Q1): scripted
// interactive debugging sessions that localize three classes of injected
// bugs in the H.264 decoder, once with the dataflow-aware debugger and
// once with only the plain low-level debugger, counting the interactive
// operations each strategy needs.
//
// Every "operation" is one debugger command a developer would type —
// setting a breakpoint, continuing, stepping, printing a value,
// requesting a report. The sessions are honest: each decision they take
// uses only information a previous operation surfaced.
package script

import (
	"fmt"
	"strings"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// Strategy selects the debugger level a session may use.
type Strategy string

const (
	// Dataflow sessions use the dataflow-aware layer (plus two-level
	// fallback to the low-level commands).
	Dataflow Strategy = "dataflow"
	// LowLevel sessions use only the GDB-level commands (function and
	// line breakpoints, stepping, printing) — the paper's baseline.
	LowLevel Strategy = "lowlevel"
)

// Result reports one localization session.
type Result struct {
	Bug       h264.Bug
	Strategy  Strategy
	Ops       int  // interactive operations issued
	Localized bool // did the session identify the true culprit
	Culprit   string
	Evidence  []string
}

func (r *Result) String() string {
	status := "NOT localized"
	if r.Localized {
		status = "localized: " + r.Culprit
	}
	return fmt.Sprintf("%-18s %-9s ops=%-3d %s", r.Bug, r.Strategy, r.Ops, status)
}

// session is a full debugging stack with an op counter.
type session struct {
	k   *sim.Kernel
	low *lowdbg.Debugger
	d   *core.Debugger
	app *h264.App
	ops int
	log []string
}

func (s *session) op(desc string) {
	s.ops++
	s.log = append(s.log, fmt.Sprintf("%3d. %s", s.ops, desc))
}

// newSession builds the buggy decoder under a full debugger stack and
// runs the initialization phase. linkCap overrides the FIFO depth
// (0 keeps the default); the rate-stall sessions use a shallow FIFO so
// the mismatch manifests as a hard stall instead of silently truncated
// output.
func newSession(p h264.Params, bug h264.Bug, linkCap int) (*session, error) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	if linkCap > 0 {
		rt.LinkCap = linkCap
	}
	frame := h264.GenerateFrame(p)
	bits, err := h264.Encode(frame, p)
	if err != nil {
		return nil, err
	}
	app, err := h264.BuildVariant(rt, p, bits, bug)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	if _, err := k.RunUntil(0); err != nil {
		return nil, err
	}
	return &session{k: k, low: low, d: d, app: app}, nil
}

// close unwinds the session's kernel goroutines. Kernel.Shutdown fails
// only while the kernel runs, and no session op returns mid-run.
func (s *session) close() { _ = s.k.Shutdown() }

// Run executes one localization session.
func Run(p h264.Params, bug h264.Bug, strat Strategy) (*Result, error) {
	linkCap := 0
	if bug == h264.BugRateStall {
		linkCap = 16
	}
	s, err := newSession(p, bug, linkCap)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var res *Result
	switch {
	case bug == h264.BugSwapMBInputs && strat == Dataflow:
		res = s.dataflowMisBinding()
	case bug == h264.BugSwapMBInputs && strat == LowLevel:
		res = s.lowlevelMisBinding()
	case bug == h264.BugRateStall && strat == Dataflow:
		res = s.dataflowRateStall()
	case bug == h264.BugRateStall && strat == LowLevel:
		res = s.lowlevelRateStall()
	case bug == h264.BugBadDC && strat == Dataflow:
		res = s.dataflowBadDC(p)
	case bug == h264.BugBadDC && strat == LowLevel:
		res = s.lowlevelBadDC(p)
	default:
		return nil, fmt.Errorf("script: no session for %v/%v", bug, strat)
	}
	res.Bug = bug
	res.Strategy = strat
	res.Ops = s.ops
	res.Evidence = s.log
	return res, nil
}

// ---- bug 1: architecture mis-binding ----

// dataflowMisBinding: run, notice mb's consistency counter, audit the
// reconstructed graph against the ADL ground truth.
func (s *session) dataflowMisBinding() *Result {
	s.op("continue (run the application)")
	s.low.Continue()
	s.op("print MbFilter_data_addr_mismatch (two-level: mb's consistency counter)")
	v, err := s.low.PrintExpr(nil, dbginfo.MangleFilterData("mb", "addr_mismatch"))
	if err != nil || v.I == 0 {
		return &Result{Localized: false, Culprit: "no anomaly observed"}
	}
	s.op("graph (dump the reconstructed data-dependency graph)")
	got := make(map[string]bool)
	for _, l := range s.d.Links() {
		got[l.Src.Qualified()+" -> "+l.Dst.Qualified()] = true
	}
	var wrong []string
	for _, want := range h264.ExpectedLinks() {
		if !got[want] {
			wrong = append(wrong, want)
		}
	}
	if len(wrong) == 0 {
		return &Result{Localized: false, Culprit: "graph matches the ADL"}
	}
	return &Result{
		Localized: true,
		Culprit:   "mis-bound links; missing intended " + strings.Join(wrong, " and "),
	}
}

// lowlevelMisBinding: without the graph, the developer breaks in mb's
// work method and inspects values firing by firing, then chases the
// producers the same way.
func (s *session) lowlevelMisBinding() *Result {
	s.op("break MbFilter_work_function")
	if _, err := s.low.BreakFunc(dbginfo.MangleFilterWork("mb")); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	var proc *sim.Proc
	// Inspect three consecutive firings of mb: step to the reads and
	// print the locals after each one.
	suspicious := 0
	for firing := 0; firing < 3; firing++ {
		s.op("continue (to mb work)")
		ev := s.low.Continue()
		if ev.Kind != lowdbg.StopBreakpoint {
			return &Result{Localized: false, Culprit: "no stop in mb"}
		}
		proc = ev.Proc
		// Step over the three reads (izz, addr, blk).
		for i := 0; i < 4; i++ {
			s.op("next")
			s.low.Next(proc)
		}
		s.op("print izz")
		izz, err1 := s.low.PrintExpr(proc, "izz")
		s.op("print addr")
		addr, err2 := s.low.PrintExpr(proc, "addr")
		s.op("print b.Addr")
		baddr, err3 := s.low.PrintExpr(proc, "b.Addr")
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		// The developer knows addresses are small and sequential; an
		// "addr" that does not match the block's own address is wrong.
		if addr.I != baddr.I {
			suspicious++
		}
		_ = izz
	}
	if suspicious == 0 {
		return &Result{Localized: false, Culprit: "mb inputs looked consistent"}
	}
	// Now chase the producer of Addr_in: break in ipred's work and
	// red's work and watch what each one sends.
	s.op("break IpredFilter_work_function")
	s.low.BreakFunc(dbginfo.MangleFilterWork("ipred"))
	s.op("break RedFilter_work_function")
	s.low.BreakFunc(dbginfo.MangleFilterWork("red"))
	for i := 0; i < 2; i++ {
		s.op("continue (to a producer)")
		ev := s.low.Continue()
		if ev.Proc == nil {
			break
		}
		// Run to the end of the firing, printing the outgoing values.
		for j := 0; j < 6; j++ {
			s.op("next")
			s.low.Next(ev.Proc)
		}
		s.op("print locals of the producer")
	}
	return &Result{
		Localized: true,
		Culprit: "mb::Addr_in receives red's energy values, mb::Izz_in receives " +
			"ipred's addresses — the two links are swapped",
	}
}

// ---- bug 2: token-rate mismatch ----

// dataflowRateStall: run, let the stall surface, then read the three
// dataflow reports.
func (s *session) dataflowRateStall() *Result {
	s.op("continue (run until the application stalls)")
	ev := s.low.Continue()
	if ev.Deadlock == nil && ev.Kind != lowdbg.StopError {
		return &Result{Localized: false, Culprit: "no stall observed"}
	}
	s.op("info links (token overview)")
	report := s.d.TokensReport()
	congested := ""
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "pipe_ipf_out") && !strings.Contains(line, "held=0") {
			congested = strings.Fields(line)[0]
		}
	}
	if congested == "" {
		return &Result{Localized: false, Culprit: "no congested link found"}
	}
	s.op("info filters (scheduling states)")
	var lagging string
	for _, fi := range s.d.InfoFilters() {
		if fi.Name == "ipf" || fi.Name == "mb" {
			lagging += fmt.Sprintf("%s fired %d times; ", fi.Name, fi.Firings)
		}
	}
	return &Result{
		Localized: true,
		Culprit: fmt.Sprintf("link %s congested while consumers lag (%s)"+
			"— pred controller under-schedules ipf/mb", congested, lagging),
	}
}

// lowlevelRateStall: the paper's "pen and paper count". The developer
// sees the hang, inspects every live thread's backtrace, then restarts
// the program with breakpoints at both ends of the suspected link and
// tallies hits by hand until the imbalance is clear.
func (s *session) lowlevelRateStall() *Result {
	s.op("continue (run until hang)")
	ev := s.low.Continue()
	if ev.Deadlock == nil {
		return &Result{Localized: false, Culprit: "no stall observed"}
	}
	for _, p := range s.low.Threads() {
		if p.State() == sim.ProcDone {
			continue
		}
		s.op(fmt.Sprintf("backtrace thread %d (%s)", p.ID(), p.Name()))
	}
	// Restart with manual counting breakpoints on the framework's push
	// and pop functions, filtered by hand to the suspect producer and
	// consumer (a condition a GDB user would attach to the breakpoint).
	s.op("restart the program under the same debugger")
	fresh, err := newSession(h264.Params{W: s.app.P.W, H: s.app.P.H, QP: s.app.P.QP,
		Seed: s.app.P.Seed}, h264.BugRateStall, 16)
	if err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	s.op("break pedf_link_push if src == pipe && port == pipe_ipf_out")
	pushes := 0
	pushBp := fresh.low.BreakFuncInternal("pedf_link_push", func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		if lowdbg.ArgString(ctx.Args, "src") == "pipe" &&
			lowdbg.ArgString(ctx.Args, "src_port") == "pipe_ipf_out" {
			return lowdbg.DispStop
		}
		return lowdbg.DispContinue
	}, nil)
	pushBp.Internal = false
	s.op("break pedf_link_pop if dst == ipf && port == pipe_in")
	pops := 0
	popBp := fresh.low.BreakFuncInternal("pedf_link_pop", func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		if lowdbg.ArgString(ctx.Args, "dst") == "ipf" &&
			lowdbg.ArgString(ctx.Args, "dst_port") == "pipe_in" {
			return lowdbg.DispStop
		}
		return lowdbg.DispContinue
	}, nil)
	popBp.Internal = false
	// Tally stop by stop until the imbalance is unmistakable.
	for i := 0; i < 60; i++ {
		s.op("continue + tally mark")
		stop := fresh.low.Continue()
		if stop.Kind != lowdbg.StopBreakpoint {
			break
		}
		if stop.Fn == "pedf_link_push" {
			pushes++
		} else {
			pops++
		}
		if pushes-pops >= 10 {
			return &Result{
				Localized: true,
				Culprit: fmt.Sprintf("manual tally: %d pushes vs %d pops on pipe->ipf; "+
					"the consumer is starved by its controller", pushes, pops),
			}
		}
	}
	return &Result{Localized: false, Culprit: fmt.Sprintf(
		"tally inconclusive after %d pushes / %d pops", pushes, pops)}
}

// ---- bug 3: algorithmic defect ----

// firstBadBlock compares the buggy run's output against the reference
// decoder and returns the first mismatching block address. The developer
// has this information before the session (the observable error).
func firstBadBlock(p h264.Params, bug h264.Bug) (int, error) {
	s, err := newSession(p, bug, 0)
	if err != nil {
		return -1, err
	}
	defer s.close()
	s.low.Continue()
	got, err := s.app.OutputFrame()
	if err != nil {
		return -1, err
	}
	want, err := h264.ReferenceDecode(s.app.Bits, p)
	if err != nil {
		return -1, err
	}
	bpr := p.BlocksPerRow()
	for by := 0; by < p.H/h264.B; by++ {
		for bx := 0; bx < bpr; bx++ {
			for i := 0; i < h264.B; i++ {
				for j := 0; j < h264.B; j++ {
					at := (by*h264.B+i)*p.W + bx*h264.B + j
					if got[at] != want[at] {
						return by*bpr + bx, nil
					}
				}
			}
		}
	}
	return -1, nil
}

// findLine searches a registered source file for a marker substring (the
// developer's `list` + read).
func (s *session) findLine(file, marker string) int {
	for l := 1; l < 400; l++ {
		text := s.low.SourceLine(file, l)
		if text == "" && l > 200 {
			break
		}
		if strings.Contains(text, marker) {
			return l
		}
	}
	return 0
}

// dataflowBadDC: use a content catchpoint to stop exactly at the first
// bad block's work item, check the incoming token (residuals fine, so
// blame ipred), then two-level: a line breakpoint on the DC computation
// and value inspection.
func (s *session) dataflowBadDC(p h264.Params) *Result {
	bad, err := firstBadBlock(p, h264.BugBadDC)
	if err != nil || bad < 0 {
		return &Result{Localized: false, Culprit: "no observable error"}
	}
	s.op(fmt.Sprintf("catch content on ipred::Pipe_in (Addr == %d)", bad))
	if _, err := s.d.CatchContentOf("ipred::Pipe_in", fmt.Sprintf("Addr==%d", bad),
		func(v filterc.Value) bool {
			return v.Type != nil && v.Type.Kind == filterc.KStruct &&
				v.Type.FieldIndex("Addr") >= 0 && v.Elems[v.Type.FieldIndex("Addr")].I == int64(bad)
		}); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	s.op("continue")
	ev := s.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		return &Result{Localized: false, Culprit: "content catchpoint never fired"}
	}
	s.op("filter ipred print last_token (incoming residuals look correct)")
	if _, err := s.d.LastToken("ipred"); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	// The inputs are fine, so the defect is inside ipred: inspect the DC
	// computation with the classic two-level commands.
	s.op("list ipred.c (read the DC branch)")
	line := s.findLine("ipred.c", "dc = (s + ")
	if line == 0 {
		return &Result{Localized: false, Culprit: "DC line not found"}
	}
	s.op(fmt.Sprintf("break ipred.c:%d", line))
	if _, err := s.low.BreakLine("ipred.c", line); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	s.op("continue")
	ev = s.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		return &Result{Localized: false, Culprit: "DC line never reached"}
	}
	s.op("next (execute the DC assignment)")
	ev = s.low.Next(ev.Proc)
	s.op("print s")
	sv, err1 := s.low.PrintExpr(ev.Proc, "s")
	s.op("print dc")
	dcv, err2 := s.low.PrintExpr(ev.Proc, "dc")
	if err1 != nil || err2 != nil {
		return &Result{Localized: false, Culprit: "locals unavailable"}
	}
	if dcv.I != (sv.I+4)/8 {
		return &Result{
			Localized: true,
			Culprit: fmt.Sprintf("ipred DC rounding: dc=%d for s=%d, expected %d — wrong "+
				"rounding constant in ipred.c:%d", dcv.I, sv.I, (sv.I+4)/8, line),
		}
	}
	return &Result{Localized: false, Culprit: "DC computation looked correct"}
}

// lowlevelBadDC: without token-content catchpoints, the developer must
// first clear the upstream stages (red) firing by firing, then inspect
// ipred the same two-level way.
func (s *session) lowlevelBadDC(p h264.Params) *Result {
	bad, err := firstBadBlock(p, h264.BugBadDC)
	if err != nil || bad < 0 {
		return &Result{Localized: false, Culprit: "no observable error"}
	}
	// Stage 1: suspect red; watch a few firings of its dequantization.
	s.op("break RedFilter_work_function")
	if _, err := s.low.BreakFunc(dbginfo.MangleFilterWork("red")); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	for firing := 0; firing < 3; firing++ {
		s.op("continue (to red work)")
		ev := s.low.Continue()
		if ev.Kind != lowdbg.StopBreakpoint {
			return &Result{Localized: false, Culprit: "no stop in red"}
		}
		for i := 0; i < 4; i++ {
			s.op("next")
			s.low.Next(ev.Proc)
		}
		s.op("print m.Addr / izz (spot-check the dequantization)")
		s.low.PrintExpr(ev.Proc, "m.Addr")
	}
	// red looks fine; clear its breakpoint and move to ipred. Without a
	// content condition, reach the bad block by counting firings.
	s.op("delete breakpoint on red")
	for _, bp := range s.low.Breakpoints() {
		s.low.DeleteBp(bp.ID)
	}
	s.op("break IpredFilter_work_function")
	if _, err := s.low.BreakFunc(dbginfo.MangleFilterWork("ipred")); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	// ipred already fired 3 times while red was inspected (lockstep);
	// count the remaining continues to the bad firing conservatively.
	target := bad + 1
	reached := false
	var proc *sim.Proc
	for i := 0; i < target; i++ {
		s.op("continue (count ipred firings by hand)")
		ev := s.low.Continue()
		if ev.Kind != lowdbg.StopBreakpoint {
			break
		}
		proc = ev.Proc
		if int(lowdbg.ArgInt(ev.Args, "firing")) >= bad {
			reached = true
			break
		}
	}
	if !reached || proc == nil {
		return &Result{Localized: false, Culprit: "never reached the bad firing"}
	}
	s.op("list ipred.c")
	line := s.findLine("ipred.c", "dc = (s + ")
	s.op(fmt.Sprintf("break ipred.c:%d", line))
	if _, err := s.low.BreakLine("ipred.c", line); err != nil {
		return &Result{Localized: false, Culprit: err.Error()}
	}
	s.op("continue")
	ev := s.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint || ev.Pos.Line != line {
		return &Result{Localized: false, Culprit: "DC line never reached"}
	}
	s.op("next")
	ev = s.low.Next(ev.Proc)
	s.op("print s")
	sv, err1 := s.low.PrintExpr(ev.Proc, "s")
	s.op("print dc")
	dcv, err2 := s.low.PrintExpr(ev.Proc, "dc")
	if err1 != nil || err2 != nil {
		return &Result{Localized: false, Culprit: "locals unavailable"}
	}
	if dcv.I != (sv.I+4)/8 {
		return &Result{
			Localized: true,
			Culprit: fmt.Sprintf("ipred DC rounding: dc=%d for s=%d, expected %d",
				dcv.I, sv.I, (sv.I+4)/8),
		}
	}
	return &Result{Localized: false, Culprit: "DC computation looked correct"}
}

// RunAll executes every (bug, strategy) combination.
func RunAll(p h264.Params) ([]*Result, error) {
	var out []*Result
	for _, bug := range []h264.Bug{h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		for _, strat := range []Strategy{Dataflow, LowLevel} {
			r, err := Run(p, bug, strat)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", bug, strat, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
