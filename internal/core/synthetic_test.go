package core

import (
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/sim"
)

// The paper's conclusion expects the debugger "to be able to easily
// encompass new models, thanks to a generic code base": the dataflow
// layer only consumes the intercepted call surface, so ANY runtime that
// reports the same API events gets full dataflow debugging. This file
// drives core with a hand-rolled synthetic target — no pedf at all.

// synthTarget emits framework API events through lowdbg.EnterFunc the
// way a foreign dataflow runtime would.
type synthTarget struct {
	low *lowdbg.Debugger
	p   *sim.Proc
}

func (s *synthTarget) call(fn string, args ...lowdbg.Arg) {
	if exit := s.low.EnterFunc(s.p, fn, func() []lowdbg.Arg { return args }); exit != nil {
		exit(nil)
	}
}

func (s *synthTarget) callRet(fn string, ret any, args ...lowdbg.Arg) {
	if exit := s.low.EnterFunc(s.p, fn, func() []lowdbg.Arg { return args }); exit != nil {
		exit(ret)
	}
}

func u32val(i int64) filterc.Value { return filterc.Int(filterc.U32, i) }

func TestSyntheticTargetReconstruction(t *testing.T) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)

	var stops []string
	done := make(chan struct{})
	k.Spawn("foreign-runtime", func(p *sim.Proc) {
		defer close(done)
		st := &synthTarget{low: low, p: p}
		// Registration phase: one module, two actors, one link.
		st.call("pedf_register_module",
			lowdbg.Arg{Name: "module", Val: "kpn"}, lowdbg.Arg{Name: "parent", Val: ""})
		st.call("pedf_register_filter",
			lowdbg.Arg{Name: "filter", Val: "prod"}, lowdbg.Arg{Name: "module", Val: "kpn"})
		st.call("pedf_register_filter",
			lowdbg.Arg{Name: "filter", Val: "cons"}, lowdbg.Arg{Name: "module", Val: "kpn"})
		st.call("pedf_register_port",
			lowdbg.Arg{Name: "actor", Val: "prod"}, lowdbg.Arg{Name: "port", Val: "o"},
			lowdbg.Arg{Name: "dir", Val: "output"}, lowdbg.Arg{Name: "type", Val: "U32"})
		st.call("pedf_register_port",
			lowdbg.Arg{Name: "actor", Val: "cons"}, lowdbg.Arg{Name: "port", Val: "i"},
			lowdbg.Arg{Name: "dir", Val: "input"}, lowdbg.Arg{Name: "type", Val: "U32"})
		st.call("pedf_bind",
			lowdbg.Arg{Name: "link", Val: int64(1)},
			lowdbg.Arg{Name: "src", Val: "prod"}, lowdbg.Arg{Name: "src_port", Val: "o"},
			lowdbg.Arg{Name: "dst", Val: "cons"}, lowdbg.Arg{Name: "dst_port", Val: "i"},
			lowdbg.Arg{Name: "kind", Val: "data"})
		// Execution phase: three tokens flow.
		linkArgs := func(idx int64, v filterc.Value) []lowdbg.Arg {
			return []lowdbg.Arg{
				{Name: "link", Val: int64(1)},
				{Name: "src", Val: "prod"}, {Name: "src_port", Val: "o"},
				{Name: "dst", Val: "cons"}, {Name: "dst_port", Val: "i"},
				{Name: "index", Val: idx}, {Name: "value", Val: v},
			}
		}
		for i := int64(0); i < 3; i++ {
			v := u32val(100 + i)
			st.call("pedf_link_push", linkArgs(i, v)...)
			st.callRet("pedf_link_pop", v, linkArgs(i, v)[:6]...)
		}
	})
	// Catchpoint on the synthetic consumer.
	// (Plant before running; registration happens inside the run.)
	ev := low.Continue()
	if ev.Kind != lowdbg.StopDone {
		t.Fatalf("run = %v", ev)
	}
	<-done
	_ = stops

	// The model reconstructed a foreign runtime's application.
	if a := d.Actor("prod"); a == nil || a.Kind != KindFilter || a.Module != "kpn" {
		t.Fatalf("prod = %v", a)
	}
	conn, err := d.Connection("cons::i")
	if err != nil {
		t.Fatal(err)
	}
	if conn.Received != 3 {
		t.Errorf("received = %d, want 3", conn.Received)
	}
	if conn.Link.TotalPushed != 3 || conn.Link.TotalPopped != 3 || conn.Link.Occupancy() != 0 {
		t.Errorf("link accounting: %+v", conn.Link)
	}
	if conn.LastToken == nil || conn.LastToken.Hop.Val.I != 102 {
		t.Errorf("last token = %v", conn.LastToken)
	}
	dot := d.GraphDOT()
	if !strings.Contains(dot, `"prod" -> "cons";`) || !strings.Contains(dot, `label="kpn";`) {
		t.Errorf("graph:\n%s", dot)
	}
}

func TestSyntheticTargetCatchpoints(t *testing.T) {
	// Catchpoints work against the synthetic target too: register first
	// (paused), then plant, then stream tokens.
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)

	gate := k.NewEvent("gate")
	k.Spawn("foreign-runtime", func(p *sim.Proc) {
		st := &synthTarget{low: low, p: p}
		st.call("pedf_register_module",
			lowdbg.Arg{Name: "module", Val: "kpn"}, lowdbg.Arg{Name: "parent", Val: ""})
		st.call("pedf_register_filter",
			lowdbg.Arg{Name: "filter", Val: "cons"}, lowdbg.Arg{Name: "module", Val: "kpn"})
		st.call("pedf_bind",
			lowdbg.Arg{Name: "link", Val: int64(1)},
			lowdbg.Arg{Name: "src", Val: "env"}, lowdbg.Arg{Name: "src_port", Val: "o"},
			lowdbg.Arg{Name: "dst", Val: "cons"}, lowdbg.Arg{Name: "dst_port", Val: "i"},
			lowdbg.Arg{Name: "kind", Val: "dma"})
		p.Wait(gate) // let the test plant catchpoints mid-run
		for i := int64(0); i < 4; i++ {
			v := u32val(i)
			args := []lowdbg.Arg{
				{Name: "link", Val: int64(1)},
				{Name: "src", Val: "env"}, {Name: "src_port", Val: "o"},
				{Name: "dst", Val: "cons"}, {Name: "dst_port", Val: "i"},
				{Name: "index", Val: i}, {Name: "value", Val: v},
			}
			st.call("pedf_link_push", args...)
			st.callRet("pedf_link_pop", v, args[:6]...)
		}
	})
	// Run registration (the runtime parks on the gate; the kernel idles).
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("registration run = %v", ev)
	}
	if _, err := d.CatchTokensOf("cons", map[string]uint64{"i": 2}); err != nil {
		t.Fatal(err)
	}
	gate.Notify()
	ev := low.Continue()
	if ev.Kind != lowdbg.StopAction ||
		!strings.Contains(ev.Reason, "Stopped after receiving token from `cons::i'") {
		t.Fatalf("stop = %v", ev)
	}
	conn, _ := d.Connection("cons::i")
	if conn.Received != 2 {
		t.Errorf("stopped at received=%d, want 2", conn.Received)
	}
	if ev = low.Continue(); ev.Kind != lowdbg.StopAction {
		t.Fatalf("re-armed catchpoint did not fire: %v", ev)
	}
	if ev = low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("final = %v", ev)
	}
}
