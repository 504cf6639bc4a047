package core

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

const blkDecl = `struct Blk { u32 Addr; i32 Pix[2]; };
`

// fwdSrc pushes its input token as it was read: the value handed to the
// push is the read-window entry, which the next firing's pop overwrites.
const fwdSrc = blkDecl + `void work() {
	pedf.io.out[0] = pedf.io.in[0];
}`

// locSrc pushes a local and then keeps writing it: the value handed to
// the push is the frame slot's storage, which the statements after the
// write and the next firing's reuse of the slot overwrite.
const locSrc = blkDecl + `void work() {
	Blk b = pedf.io.in[0];
	b.Pix[0] = b.Pix[0] + 1;
	pedf.io.out[0] = b;
	b.Pix[1] = 99;
	b.Addr = 0;
}`

// blkPipeline is env -> fwd -> loc -> env over n Blk tokens, with core
// attached.
type blkPipeline struct {
	k                *sim.Kernel
	low              *lowdbg.Debugger
	d                *Debugger
	rt               *pedf.Runtime
	in               []filterc.Value
	feed             []string // in, rendered before the run
	wantFwd, wantLoc []string // what fwd and loc push, rendered
	col              *pedf.Collector
}

func newBlkPipeline(t *testing.T, n int) *blkPipeline {
	t.Helper()
	prog, err := filterc.Parse("blk.c", blkDecl)
	if err != nil {
		t.Fatal(err)
	}
	blk := prog.Structs["Blk"]
	mk := func(addr, p0, p1 int64) filterc.Value {
		v := filterc.Zero(blk)
		v.Elems[0] = filterc.Int(filterc.U32, addr)
		v.Elems[1].Elems[0] = filterc.Int(filterc.I32, p0)
		v.Elems[1].Elems[1] = filterc.Int(filterc.I32, p1)
		return v
	}
	bp := &blkPipeline{}
	for i := int64(1); i <= int64(n); i++ {
		v := mk(i, 10*i, 100*i)
		bp.in = append(bp.in, v)
		bp.wantFwd = append(bp.wantFwd, v.String())
		bp.wantLoc = append(bp.wantLoc, mk(i, 10*i+1, 100*i).String())
		bp.feed = append(bp.feed, v.String())
	}

	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	bp.k, bp.low, bp.d = k, low, Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := pedf.NewRuntime(k, m, low)
	mod, err := rt.NewModule("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := mod.AddPort("in", pedf.In, blk)
	mout, _ := mod.AddPort("out", pedf.Out, blk)
	ports := []pedf.PortSpec{{Name: "in", Type: blk}}
	outs := []pedf.PortSpec{{Name: "out", Type: blk}}
	fwd, err := rt.NewFilter(mod, pedf.FilterSpec{Name: "fwd", Source: fwdSrc, Inputs: ports, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := rt.NewFilter(mod, pedf.FilterSpec{Name: "loc", Source: locSrc, Inputs: ports, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	ctl := fmt.Sprintf(`u32 work() {
	ACTOR_START("fwd");
	ACTOR_START("loc");
	WAIT_FOR_ACTOR_INIT();
	ACTOR_SYNC("fwd");
	ACTOR_SYNC("loc");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= %d) return 0;
	return 1;
}`, n)
	if _, err := rt.SetController(mod, pedf.ControllerSpec{Source: ctl}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Bind(min, fwd.In("in")))
	must(rt.Bind(fwd.Out("out"), loc.In("in")))
	must(rt.Bind(loc.Out("out"), mout))
	must(rt.FeedInput(min, bp.in))
	bp.col, err = rt.CollectOutput(mout)
	must(err)
	bp.rt = rt
	return bp
}

// boot starts the runtime and runs the framework's init phase.
func (bp *blkPipeline) boot(t *testing.T) {
	t.Helper()
	if err := bp.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := bp.k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
}

// TestPushedAggregatePayloadsStayPrivate checks that the dataflow
// debugger keeps the struct tokens as they were pushed. Pushes reach it
// both forwarded straight from an io read and from a local that the
// filter goes on writing; both sources are overwritten in place later
// (by the same firing and by the next ones).
func TestPushedAggregatePayloadsStayPrivate(t *testing.T) {
	const n = 3
	bp := newBlkPipeline(t, n)
	bp.boot(t)
	low, d := bp.low, bp.d
	in, feed, wantFwd, wantLoc, col := bp.in, bp.feed, bp.wantFwd, bp.wantLoc, bp.col
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.SetRecording("fwd::out", true))
	must(d.SetRecording("loc::out", true))
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}

	for i, v := range in {
		if v.String() != feed[i] {
			t.Errorf("fed token %d changed: %s, want %s", i+1, v, feed[i])
		}
	}
	check := func(iface string, want []string) {
		t.Helper()
		toks, err := d.RecordedTokens(iface)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != len(want) {
			t.Fatalf("%s: %d recorded tokens, want %d", iface, len(toks), len(want))
		}
		for i, tok := range toks {
			if got := tok.Hop.Val.String(); got != want[i] {
				t.Errorf("%s token %d = %s, want %s", iface, i+1, got, want[i])
			}
		}
	}
	check("fwd::out", wantFwd)
	check("loc::out", wantLoc)
	if got := col.Values; len(got) != n || got[n-1].String() != wantLoc[n-1] {
		t.Errorf("collected %v, want %d tokens ending in %s", got, n, wantLoc[n-1])
	}
	last, err := d.LastToken("loc")
	if err != nil {
		t.Fatal(err)
	}
	if got := last.Hop.Val.String(); got != wantFwd[n-1] {
		t.Errorf("loc's last received token = %s, want %s", got, wantFwd[n-1])
	}
}

// TestCoreDataHooksBuildNoArgs: with only core's typed breakpoints armed
// on the data symbols, no push or pop builds an argument list — a typed
// observer beside them sees the record and never an []Arg — while the
// model still follows every token.
func TestCoreDataHooksBuildNoArgs(t *testing.T) {
	const n = 3
	bp := newBlkPipeline(t, n)
	var hits, withArgs int
	observe := func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		hits++
		if ctx.Args != nil || ctx.Data == nil {
			withArgs++
		}
		return lowdbg.DispContinue
	}
	for _, sym := range []string{symLinkPush, symLinkPop} {
		bp.low.BreakFuncInternal(sym, observe, observe).Typed = true
	}
	bp.boot(t)
	if ev := bp.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	// Three links, n tokens each, entry and return of both ends (plus
	// the entries of pops still blocked at the end).
	if want := 3 * n * 4; hits < want {
		t.Errorf("%d hook hits, want at least %d", hits, want)
	}
	if withArgs != 0 {
		t.Errorf("%d of %d hits built an argument list", withArgs, hits)
	}
	conn, _ := bp.d.Connection("loc::in")
	if conn.Received != n || conn.LastToken.Hop.Val.String() != bp.wantFwd[n-1] {
		t.Errorf("loc::in received %d, last %v", conn.Received, conn.LastToken)
	}
}

// TestUntypedDataBreakpointSeesPrivateArgs: a breakpoint that is not
// typed on pedf_link_push / pedf_link_pop — a user `break` or a script
// action — still sees every named argument, and a pushed value that the
// producer's later statements and firings do not overwrite.
func TestUntypedDataBreakpointSeesPrivateArgs(t *testing.T) {
	const n = 3
	bp := newBlkPipeline(t, n)
	names := func(args []lowdbg.Arg) string {
		var s []string
		for _, a := range args {
			s = append(s, a.Name)
		}
		return strings.Join(s, ",")
	}
	const pushArgs = "link,src,src_port,dst,dst_port,index,value"
	pushed := map[string][]filterc.Value{}
	var bad []string
	bp.low.BreakFuncInternal(symLinkPush, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		if got := names(ctx.Args); got != pushArgs {
			bad = append(bad, "push args "+got)
		}
		v, _ := lowdbg.ArgVal(ctx.Args, "value")
		src := lowdbg.ArgString(ctx.Args, "src")
		pushed[src] = append(pushed[src], v.(filterc.Value))
		return lowdbg.DispContinue
	}, nil)
	popped := map[string][]string{}
	bp.low.BreakFuncInternal(symLinkPop, nil, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		if got := names(ctx.Args); got != strings.TrimSuffix(pushArgs, ",value") {
			bad = append(bad, "pop args "+got)
		}
		dst := lowdbg.ArgString(ctx.Args, "dst")
		popped[dst] = append(popped[dst], ctx.Ret.(filterc.Value).String())
		return lowdbg.DispContinue
	})
	bp.boot(t)
	if ev := bp.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	if len(bad) > 0 {
		t.Fatalf("argument lists: %v", bad)
	}
	check := func(what string, got []string, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n%s\nwant\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	render := func(vs []filterc.Value) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.String())
		}
		return out
	}
	check("env pushes", render(pushed["env"]), bp.feed)
	check("fwd pushes", render(pushed["fwd"]), bp.wantFwd)
	check("loc pushes", render(pushed["loc"]), bp.wantLoc)
	check("fwd pops", popped["fwd"], bp.feed)
	check("loc pops", popped["loc"], bp.wantFwd)
	// The typed model beside the untyped breakpoints saw the same tokens.
	last, err := bp.d.LastToken("loc")
	if err != nil || last.Hop.Val.String() != bp.wantFwd[n-1] {
		t.Errorf("loc's last token = %v, %v", last, err)
	}
}

// TestOneShotCatchDeletedMidScan: a one-shot catchpoint that deletes
// itself while the per-token evaluators range over the catchpoint list
// must not make them skip or repeat the catchpoints after it.
func TestOneShotCatchDeletedMidScan(t *testing.T) {
	bp := newBlkPipeline(t, 3)
	bp.boot(t)
	// step_both plants two one-shot catchpoints ahead of the counters.
	if err := bp.d.StepBoth("fwd::out"); err != nil {
		t.Fatal(err)
	}
	var evals [2]int
	for i := range evals {
		i := i
		bp.d.CatchWhen(fmt.Sprintf("count%d", i), func(*Debugger) bool { evals[i]++; return false })
	}
	stops := 0
	for ev := bp.low.Continue(); ev.Kind != lowdbg.StopDone; ev = bp.low.Continue() {
		if stops++; stops > 2 {
			t.Fatalf("unexpected stop %v", ev)
		}
	}
	if stops != 2 {
		t.Errorf("%d step_both stops, want 2", stops)
	}
	if evals[0] == 0 || evals[0] != evals[1] {
		t.Errorf("condition catchpoints evaluated %d and %d times, want equal", evals[0], evals[1])
	}
}
