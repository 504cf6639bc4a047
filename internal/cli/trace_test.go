package cli

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// traceSession runs a two-filter pipeline (env -> fa -> fb -> env) of n
// tokens to completion and returns a CLI over its obs ring, which
// records dataflow events with payloads as the dfdbg session's does.
func traceSession(t *testing.T, n int) (*CLI, *strings.Builder) {
	t.Helper()
	k := sim.NewKernel()
	orec := obs.NewRecorder(0)
	orec.EnableKinds(obs.MaskDataflow)
	orec.SetPayloads(true)
	k.SetObserver(orec)
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	u32 := filterc.Scalar(filterc.U32)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", pedf.In, u32)
	mout, _ := mod.AddPort("out", pedf.Out, u32)
	fwd := `void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }`
	spec := func(name string) pedf.FilterSpec {
		return pedf.FilterSpec{Name: name, Source: fwd,
			Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
			Outputs: []pedf.PortSpec{{Name: "o", Type: u32}}}
	}
	fa, _ := rt.NewFilter(mod, spec("fa"))
	fb, _ := rt.NewFilter(mod, spec("fb"))
	rt.SetController(mod, pedf.ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("fa"); ACTOR_FIRE("fb"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX() + 1 >= ` +
			strconv.Itoa(n) + `) return 0; return 1; }`,
	})
	rt.Bind(min, fa.In("i"))
	rt.Bind(fa.Out("o"), fb.In("i"))
	rt.Bind(fb.Out("o"), mout)
	var feed []filterc.Value
	for i := 0; i < n; i++ {
		feed = append(feed, filterc.Int(filterc.U32, int64(i)))
	}
	rt.FeedInput(min, feed)
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("run = %v", ev)
	}
	var out strings.Builder
	c := New(d, &out)
	c.Obs = orec
	return c, &out
}

// traceKinds tallies the kind column of a `trace` dump.
func traceKinds(dump string) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(dump), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			counts[f[1]]++
		}
	}
	return counts
}

func TestTraceCapturesEvents(t *testing.T) {
	c, out := traceSession(t, 3)
	counts := traceKinds(exec(t, c, out, "trace 0"))
	// Pushes: feeder 3 + fa 3 + fb 3 = 9. Pops: fa 3 + fb 3 + sink 3 = 9.
	if counts["push"] != 9 {
		t.Errorf("pushes = %d, want 9", counts["push"])
	}
	if counts["pop"] != 9 {
		t.Errorf("pops = %d, want 9", counts["pop"])
	}
	if counts["sched"] == 0 {
		t.Error("no scheduling events recorded")
	}
}

func TestTraceBalanceDrained(t *testing.T) {
	c, out := traceSession(t, 4)
	if got := exec(t, c, out, "trace balance"); got != "" {
		t.Errorf("drained pipeline has link balance:\n%s", got)
	}
}

func TestTraceActivity(t *testing.T) {
	c, out := traceSession(t, 2)
	act := make(map[string]int)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(exec(t, c, out, "trace activity")), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[2] != "events" {
			t.Fatalf("activity line %q", line)
		}
		act[f[0]], _ = strconv.Atoi(f[1])
		names = append(names, f[0])
	}
	if act["fa"] == 0 || act["fb"] == 0 || act["env"] == 0 {
		t.Errorf("activity = %v", act)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("activity not in actor-name order: %v", names)
	}
}

func TestTraceTail(t *testing.T) {
	c, out := traceSession(t, 2)
	full := exec(t, c, out, "trace 0")
	if !strings.Contains(full, "push") || !strings.Contains(full, "fa") {
		t.Errorf("dump:\n%s", full)
	}
	if got := strings.Count(exec(t, c, out, "trace 3"), "\n"); got != 3 {
		t.Errorf("trace 3 printed %d lines", got)
	}
}

func TestTraceCapWraps(t *testing.T) {
	k := sim.NewKernel()
	orec := obs.NewRecorder(8)
	orec.SetPayloads(true)
	k.SetObserver(orec)
	d := core.Attach(lowdbg.New(k, dbginfo.NewTable()))
	var out strings.Builder
	c := New(d, &out)
	c.Obs = orec
	// Feed push events directly into the ring.
	for i := 0; i < 50; i++ {
		orec.Record(obs.Event{
			Kind: obs.KPush, Actor: "a", Other: "b", Port: "o", Link: 1,
			Val: strconv.Itoa(i),
		})
	}
	lines := strings.Split(strings.TrimSpace(exec(t, c, &out, "trace 0")), "\n")
	if len(lines) > orec.Cap() {
		t.Errorf("trace printed %d events, over the ring cap %d", len(lines), orec.Cap())
	}
	if got := orec.Dropped(); got != 42 {
		t.Errorf("dropped = %d, want 42", got)
	}
	// The tail survived.
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, " 49") {
		t.Errorf("last event %q, want payload 49", last)
	}
}
