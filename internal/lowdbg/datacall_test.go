package lowdbg

import (
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

func pairVal(a, b int64) filterc.Value {
	v := filterc.Zero(filterc.ArrayOf(filterc.Scalar(filterc.I32), 2))
	v.Elems[0], v.Elems[1] = filterc.Int(filterc.I32, a), filterc.Int(filterc.I32, b)
	return v
}

func testCall(push bool) *DataCall {
	return &DataCall{Link: 3, Src: "red", SrcPort: "o", Dst: "pipe", DstPort: "i", Push: push}
}

// TestTypedDataCallBuildsNoArgs: with only typed breakpoints armed, a
// data call hands its record through StopCtx.Data, builds no argument
// list, and a hit with a finish action allocates nothing.
func TestTypedDataCallBuildsNoArgs(t *testing.T) {
	d := New(sim.NewKernel(), dbginfo.NewTable())
	var entries, returns, withArgs int
	var last filterc.Value
	bp := d.BreakFuncInternal("pedf_link_pop", func(ctx *StopCtx) Disposition {
		entries++
		if ctx.Args != nil || ctx.Data == nil {
			withArgs++
		}
		return DispContinue
	}, func(ctx *StopCtx) Disposition {
		returns++
		if ctx.Args != nil || ctx.Ret != nil {
			withArgs++
		}
		last = ctx.Data.Value
		return DispContinue
	})
	bp.Typed = true
	c := testCall(false)
	v := pairVal(7, 8)
	allocs := testing.AllocsPerRun(100, func() {
		c.Index++
		c.Value = filterc.Value{}
		if d.EnterData(nil, "pedf_link_pop", c) {
			c.Value = v
			d.ExitData(c)
		}
	})
	if allocs != 0 {
		t.Errorf("typed pop hit made %.1f allocations, want 0", allocs)
	}
	if entries == 0 || entries != returns {
		t.Fatalf("entries=%d returns=%d", entries, returns)
	}
	if withArgs != 0 {
		t.Errorf("%d typed hits saw an argument list or a boxed return", withArgs)
	}
	if last.String() != "[7, 8]" {
		t.Errorf("finish action saw %s", last)
	}
}

// TestUntypedBreakpointSeesDataCallArgs: a breakpoint that is not typed
// (a user `break pedf_link_push`, a script action) on a data call sees
// every named argument, a private copy of the pushed value, and a pop's
// value as its return value.
func TestUntypedBreakpointSeesDataCallArgs(t *testing.T) {
	d := New(sim.NewKernel(), dbginfo.NewTable())
	typed := d.BreakFuncInternal("pedf_link_push", func(*StopCtx) Disposition { return DispContinue }, nil)
	typed.Typed = true
	var pushed []filterc.Value
	var args []Arg
	d.BreakFuncInternal("pedf_link_push", func(ctx *StopCtx) Disposition {
		args = ctx.Args
		v, _ := ArgVal(ctx.Args, "value")
		pushed = append(pushed, v.(filterc.Value))
		return DispContinue
	}, nil)
	var popRet []string
	d.BreakFuncInternal("pedf_link_pop", nil, func(ctx *StopCtx) Disposition {
		popRet = append(popRet, ctx.Ret.(filterc.Value).String())
		return DispContinue
	})

	c := testCall(true)
	src := pairVal(1, 2) // producer storage, overwritten after each push
	for i := int64(0); i < 3; i++ {
		src.Elems[0], src.Elems[1] = filterc.Int(filterc.I32, i), filterc.Int(filterc.I32, 10*i)
		c.Index, c.Value = uint64(i), src
		if d.EnterData(nil, "pedf_link_push", c) {
			d.ExitData(c)
		}
	}
	want := map[string]any{"link": int64(3), "src": "red", "src_port": "o",
		"dst": "pipe", "dst_port": "i", "index": int64(2)}
	if len(args) != len(want)+1 {
		t.Fatalf("args = %v", args)
	}
	for name, w := range want {
		if got, ok := ArgVal(args, name); !ok || got != w {
			t.Errorf("arg %s = %v, want %v", name, got, w)
		}
	}
	for i, v := range pushed {
		if got, w := v.String(), pairVal(int64(i), 10*int64(i)).String(); got != w {
			t.Errorf("push %d value = %s, want %s (not a private copy)", i, got, w)
		}
	}

	pop := testCall(false)
	if !d.EnterData(nil, "pedf_link_pop", pop) {
		t.Fatal("pop finisher not pending")
	}
	pop.Value = pairVal(5, 6)
	d.ExitData(pop)
	if len(popRet) != 1 || popRet[0] != "[5, 6]" {
		t.Errorf("pop finish saw %v", popRet)
	}
}

// TestTemporaryRemovedMidScan: a temporary breakpoint removed while the
// hook is running a symbol's breakpoints must not make the scan skip or
// repeat the others.
func TestTemporaryRemovedMidScan(t *testing.T) {
	d := New(sim.NewKernel(), dbginfo.NewTable())
	cont := func(*StopCtx) Disposition { return DispContinue }
	a := d.BreakFuncInternal("sym", cont, nil)
	tmp := d.BreakFuncInternal("sym", cont, nil)
	tmp.Temporary = true
	b := d.BreakFuncInternal("sym", cont, nil)
	var late *Breakpoint
	// c removes the breakpoint after it during the same scan: that one
	// still runs once, as it was armed when the call began.
	c := d.BreakFuncInternal("sym", func(*StopCtx) Disposition {
		d.DeleteInternalBp(late)
		return DispContinue
	}, nil)
	late = d.BreakFuncInternal("sym", cont, nil)
	z := d.BreakFuncInternal("sym", cont, nil)
	d.EnterFunc(nil, "sym", nil)
	d.EnterData(nil, "sym", testCall(true))
	if tmp.HitCount != 1 || late.HitCount != 1 {
		t.Errorf("temporary hits=%d, removed-later hits=%d; want 1 each", tmp.HitCount, late.HitCount)
	}
	for _, bp := range []*Breakpoint{a, b, c, z} {
		if bp.HitCount != 2 {
			t.Errorf("breakpoint #%d ran %d times over two calls, want 2", bp.ID, bp.HitCount)
		}
	}
	if n := len(d.AllBreakpoints()); n != 4 {
		t.Errorf("%d breakpoints left, want 4", n)
	}
}
