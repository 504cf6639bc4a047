package core

import (
	"fmt"
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

// TestPushedAggregatePayloadsStayPrivate checks that the dataflow
// debugger keeps the struct tokens as they were pushed. Pushes reach it
// both forwarded straight from an io read and from a local that the
// filter goes on writing; both sources are overwritten in place later
// (by the same firing and by the next ones).
func TestPushedAggregatePayloadsStayPrivate(t *testing.T) {
	const n = 3
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
	var feed, wantFwd, wantLoc []string
	var in []filterc.Value
	for i := int64(1); i <= n; i++ {
		v := mk(i, 10*i, 100*i)
		in = append(in, v)
		wantFwd = append(wantFwd, v.String())
		wantLoc = append(wantLoc, mk(i, 10*i+1, 100*i).String())
		feed = append(feed, v.String())
	}

	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)
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
	must(rt.FeedInput(min, in))
	col, err := rt.CollectOutput(mout)
	must(err)
	must(rt.Start())
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
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
