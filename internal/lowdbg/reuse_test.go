package lowdbg

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

const recurseSrc = `struct P { i32 n; i32 hist[3]; };
i32 leaf(P p) {
	return p.n;
}
i32 down(i32 n, P acc) {
	P p;
	p.n = n;
	p.hist = acc.hist;
	p.hist[n % 3] = n * 10;
	if (n == 0) {
		return leaf(p);
	}
	return down(n - 1, p) + n;
}
void work() {
	P z;
	pedf.data.out = down(pedf.data.depth, z);
}`

// TestStackAtNestedBreakpointAfterReuse stops at a breakpoint inside the
// innermost call of a recursion, once per WORK call, with a recursion
// depth that changes between calls. The interpreter reuses activation
// storage from call to call, so every stop must still show each frame's
// own function, line and values.
func TestStackAtNestedBreakpointAfterReuse(t *testing.T) {
	k := sim.NewKernel()
	syms := dbginfo.NewTable()
	prog, err := filterc.Parse("t.c", recurseSrc)
	if err != nil {
		t.Fatal(err)
	}
	lt := syms.LineTableFor("t.c")
	for _, sl := range prog.StmtLines() {
		lt.AddStmt(sl.Line, sl.Func)
	}
	d := New(k, syms)
	d.AddSource("t.c", recurseSrc)
	env := &fakeEnv{data: make(map[string]*filterc.Value)}
	in := filterc.New(prog, env)
	depths := []int64{3, 1, 4, 0, 2}
	p := k.Spawn("target", func(p *sim.Proc) {
		for _, depth := range depths {
			v, _ := env.DataRef("depth")
			*v = filterc.Int(filterc.U32, depth)
			if _, err := in.CallFunc("work", nil); err != nil {
				panic(err)
			}
		}
	})
	d.AttachInterp(p, in)
	if _, err := d.BreakLine("t.c", 3); err != nil {
		t.Fatal(err)
	}
	for _, depth := range depths {
		ev := d.Continue()
		if ev.Kind != StopBreakpoint {
			t.Fatalf("depth %d: stop = %v, want the leaf breakpoint", depth, ev)
		}
		var got strings.Builder
		for _, fr := range d.FramesFor(p) {
			fmt.Fprintf(&got, "%s@%d", fr.FuncName(), fr.Line)
			for _, b := range fr.Locals() {
				fmt.Fprintf(&got, " %s=%s", b.Name, b.Val)
			}
			got.WriteString("; ")
		}
		// Expected stack, innermost first, replaying the recursion.
		hist := []int64{0, 0, 0}
		var downs []string
		for n := depth; n >= 0; n-- {
			acc := fmt.Sprintf("{n = %d, hist = [%d, %d, %d]}", n+1, hist[0], hist[1], hist[2])
			if n == depth {
				acc = "{n = 0, hist = [0, 0, 0]}"
			}
			hist[n%3] = n * 10
			line := 13
			if n == 0 {
				line = 11
			}
			downs = append(downs, fmt.Sprintf("down@%d p={n = %d, hist = [%d, %d, %d]} n=%d acc=%s; ",
				line, n, hist[0], hist[1], hist[2], n, acc))
		}
		want := fmt.Sprintf("leaf@3 p={n = 0, hist = [%d, %d, %d]}; ", hist[0], hist[1], hist[2])
		for i := len(downs) - 1; i >= 0; i-- {
			want += downs[i]
		}
		want += "work@17 z={n = 0, hist = [0, 0, 0]}; "
		if got.String() != want {
			t.Fatalf("depth %d: frames at the leaf breakpoint\n got: %s\nwant: %s", depth, got.String(), want)
		}
	}
	if ev := d.Continue(); ev.Kind != StopDone {
		t.Fatalf("final stop = %v, want done", ev)
	}
	if v, _ := env.DataRef("out"); v.I != 3 {
		t.Errorf("last work() stored %d, want 3 (depth 2: 2+1+0)", v.I)
	}
}
