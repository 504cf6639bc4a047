package filterc

import (
	"fmt"
	"strings"
	"testing"
)

// reuseEnv is an allocation-free Env: reads hand out one fixed token
// (shared storage, as the pedf read window does) and writes copy into
// one retained slot, the way a pedf link cell does.
type reuseEnv struct {
	in, out Value
	writes  int
}

func (e *reuseEnv) IORead(iface string, idx int64) (Value, error) { return e.in, nil }
func (e *reuseEnv) IOWrite(iface string, idx int64, v Value) error {
	v.CloneInto(&e.out)
	e.writes++
	return nil
}
func (e *reuseEnv) DataRef(name string) (*Value, error) { return nil, fmt.Errorf("no data %q", name) }
func (e *reuseEnv) AttrRef(name string) (*Value, error) {
	return nil, fmt.Errorf("no attribute %q", name)
}
func (e *reuseEnv) Intrinsic(name string, args []Value) (Value, bool, error) {
	return Value{}, false, nil
}

const reuseSrc = `struct Blk { u32 Addr; i32 Pix[4]; };
i32 sum(Blk v) {
	i32 s = 0;
	for (i32 k = 0; k < 4; k++) s = s + v.Pix[k];
	v.Pix[0] = 100;
	return s;
}
i32 work() {
	Blk b = pedf.io.in[0];
	i32 a[4];
	a = b.Pix;
	a[1] = a[0] + 1;
	i32 c[4] = a;
	c[3] = 9;
	b.Pix = c;
	pedf.io.out[0] = b;
	return sum(b) * 1000 + a[3] + b.Pix[0];
}`

func newReuseInterp(t *testing.T) (*Interp, *reuseEnv) {
	t.Helper()
	prog := MustParse("reuse.c", reuseSrc)
	bt := prog.Structs["Blk"]
	if bt == nil {
		t.Fatal("struct Blk not declared")
	}
	env := &reuseEnv{in: Zero(bt)}
	env.in.Elems[0].I = 7
	for i := range env.in.Elems[1].Elems {
		env.in.Elems[1].Elems[i].I = int64(10 * (i + 1))
	}
	return New(prog, env), env
}

// TestVMCallSteadyStateDoesNotAllocate pins the allocation-free call:
// once a function has run, calling it again declares, zeroes, loads,
// stores, passes and io-reads aggregates without touching the heap.
func TestVMCallSteadyStateDoesNotAllocate(t *testing.T) {
	in, env := newReuseInterp(t)
	check := func() {
		t.Helper()
		v, err := in.CallFunc("work", nil)
		if err != nil {
			t.Fatal(err)
		}
		// a = {10, 11, 30, 40}; b.Pix = c = {10, 11, 30, 9}; sum(b) = 60
		// and its store into v.Pix[0] must not reach b.
		if v.I != 60*1000+40+10 {
			t.Fatalf("work() = %d, want %d", v.I, 60*1000+40+10)
		}
		if got := env.out.String(); got != "{Addr = 7, Pix = [10, 11, 30, 9]}" {
			t.Fatalf("written token = %s", got)
		}
		if got := env.in.String(); got != "{Addr = 7, Pix = [10, 20, 30, 40]}" {
			t.Fatalf("io-read token modified through a local: %s", got)
		}
	}
	check() // warm the activation records and slot storage
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.CallFunc("work", nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state call allocated %.1f times per call, want 0", allocs)
	}
	check()
}

// TestRecursiveFramesAfterReuse takes the call stack at the deepest point
// of a recursion whose depth changes from call to call, so every call
// reuses activation storage left behind by a deeper or shallower one.
// Each frame must show its own function, line and values.
func TestRecursiveFramesAfterReuse(t *testing.T) {
	prog := MustParse("rec.c", `struct P { i32 n; i32 hist[3]; };
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
i32 work(i32 depth) {
	P z;
	return down(depth, z);
}`)
	in := New(prog, newTestEnv())
	var got []string
	in.Hooks = &funcHooks{onStmt: func(fr *Frame, pos Pos) {
		if fr.FuncName() != "leaf" {
			return
		}
		var b strings.Builder
		for _, f := range in.Stack() {
			fmt.Fprintf(&b, "%s@%d", f.FuncName(), f.Line)
			for _, name := range []string{"n", "p", "depth"} {
				if v, ok := f.Lookup(name); ok {
					fmt.Fprintf(&b, " %s=%s", name, v)
				}
			}
			b.WriteString("; ")
		}
		got = append(got, b.String())
	}}
	for _, depth := range []int64{3, 1, 4, 0, 2} {
		got = got[:0]
		v, err := in.CallFunc("work", []Value{Int(I32, depth)})
		if err != nil {
			t.Fatal(err)
		}
		if want := depth * (depth + 1) / 2; v.I != want {
			t.Fatalf("work(%d) = %d, want %d", depth, v.I, want)
		}
		// Build the expected stack innermost first, replaying the
		// recursion's array updates.
		hist := []int64{0, 0, 0}
		var frames []string
		for n := depth; n >= 0; n-- {
			hist[n%3] = n * 10
			frames = append(frames, fmt.Sprintf("down@%d n=%d p={n = %d, hist = [%d, %d, %d]}; ",
				map[bool]int{true: 11, false: 13}[n == 0], n, n, hist[0], hist[1], hist[2]))
		}
		var want strings.Builder
		last := frames[len(frames)-1]
		fmt.Fprintf(&want, "leaf@3 p=%s", last[strings.Index(last, "p=")+2:])
		for i := len(frames) - 1; i >= 0; i-- {
			want.WriteString(frames[i])
		}
		fmt.Fprintf(&want, "work@17 depth=%d; ", depth)
		if len(got) != 1 || got[0] != want.String() {
			t.Fatalf("work(%d) stack at leaf:\n got: %v\nwant: %s", depth, got, want.String())
		}
	}
}

// TestAggregateAliasingMatchesWalker pins the engines' agreement on the
// expressions where sharing storage could show: an aggregate loaded
// while a later operand of the same expression writes its source, an
// assignment used as a value, and aggregate results of calls whose
// activation storage the next call reuses. The expected values are the
// ones both engines computed before frames and aggregates were reused:
// an assignment's value sees a later element store to its destination
// in the same expression, but not a later whole store.
func TestAggregateAliasingMatchesWalker(t *testing.T) {
	cases := map[string]struct {
		src  string
		want string
	}{
		"load then write in a later argument": {`struct A { i32 v[2]; };
i32 g(A x, i32 y) { return x.v[0] * 10 + y; }
i32 f() { A a; a.v[0] = 1; return g(a, a.v[0] = 5); }`, "15"},
		"assignment value then whole store": {`struct A { i32 v[2]; };
i32 g(A x, A y) { return x.v[0] * 10 + y.v[0]; }
i32 f() { A a; A b; A c; b.v[0] = 1; c.v[0] = 2; return g(a = b, a = c); }`, "12"},
		"assignment value then element store": {`struct A { i32 v[2]; };
i32 g(A x, i32 y) { return x.v[0] * 10 + y; }
i32 f() { A a; A b; b.v[0] = 1; return g(a = b, a.v[0] = 9); }`, "99"},
		"field assignment value then field store": {`struct In { i32 v[2]; };
struct A { In s; };
i32 g(In x, In y) { return x.v[0] * 10 + y.v[0]; }
i32 f() { A a; In b; In c; b.v[0] = 1; c.v[0] = 2; return g(a.s = b, a.s = c); }`, "12"},
		"field assignment value then element store": {`struct In { i32 v[2]; };
struct A { In s; };
i32 g(In x, i32 y) { return x.v[0] * 10 + y; }
i32 f() { A a; In b; b.v[0] = 1; return g(a.s = b, a.s.v[0] = 9); }`, "99"},
		"callee writes its copy": {`struct A { i32 v[2]; };
i32 h(A x) { x.v[0] = 7; return x.v[0]; }
i32 f() { A a; h(a); return a.v[0]; }`, "0"},
		"struct results of reused activations": {`struct S { i32 x; i32 v[2]; };
S mk(i32 n) { S s; s.x = n; s.v[1] = n * 2; return s; }
i32 cmp(S a, S b) { return a.x * 100 + b.v[1]; }
i32 f() { return cmp(mk(1), mk(2)); }`, "104"},
		"returned local survives the next call": {`struct S { i32 x; };
S mk(i32 n) { S s; s.x = n; return s; }
i32 f() { S a = mk(1); S b = mk(2); return a.x * 10 + b.x; }`, "12"},
		"self assignment": {`i32 f() { i32 a[3]; a[1] = 4; a = a; return a[1]; }`, "4"},
	}
	for name, tc := range cases {
		prog, err := Parse("alias.c", tc.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffEngines(prog, "f", nil, 0); d != "" {
			t.Errorf("%s: engines diverge:\n%s", name, d)
		}
		in := New(prog, newTestEnv())
		v, err := in.CallFunc("f", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.String() != tc.want {
			t.Errorf("%s: f() = %s, want %s", name, v, tc.want)
		}
	}
}
