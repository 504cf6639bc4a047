package pedfgraph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// buildH264 elaborates a fresh decoder runtime, the way every session
// attach does.
func buildH264(t testing.TB, bugName string, w, h int) *pedf.Runtime {
	t.Helper()
	bug, err := h264.ParseBug(bugName)
	if err != nil {
		t.Fatal(err)
	}
	p := h264.Params{W: w, H: h, QP: 8, Seed: 7}
	k := sim.NewKernel()
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), lowdbg.New(k, dbginfo.NewTable()))
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h264.BuildVariant(rt, p, bits, bug); err != nil {
		t.Fatal(err)
	}
	return rt
}

// classifyUncached classifies every actor with a direct absint.Classify
// call, bypassing the process-wide memo.
func classifyUncached(rt *pedf.Runtime) map[string]*absint.Class {
	out := map[string]*absint.Class{}
	for _, f := range rt.Actors() {
		out[f.Name] = absint.Classify(f.Prog, AbsContextFor(f))
	}
	return out
}

// TestWarmMemoMatchesCold: a report served from the process-wide
// classification memo (a second fresh build of the same design) must
// deep-equal the report assembled from uncached classifications, for
// every decoder variant and two frame sizes.
func TestWarmMemoMatchesCold(t *testing.T) {
	for _, bug := range []string{"none", "swapped-mb-inputs", "rate-stall", "bad-dc"} {
		for _, size := range [][2]int{{16, 16}, {32, 32}} {
			t.Run(fmt.Sprintf("%s/%dx%d", bug, size[0], size[1]), func(t *testing.T) {
				// Warm the memo, then analyze a second fresh build.
				if _, _, err := Analyze(buildH264(t, bug, size[0], size[1]), "h264"); err != nil {
					t.Fatal(err)
				}
				entries := ClassMemoEntries()
				warm, _, err := Analyze(buildH264(t, bug, size[0], size[1]), "h264")
				if err != nil {
					t.Fatal(err)
				}
				if got := ClassMemoEntries(); got != entries {
					t.Errorf("second build grew the memo: %d → %d entries", entries, got)
				}
				cold, _, err := analyze(buildH264(t, bug, size[0], size[1]), "h264", classifyUncached)
				if err != nil {
					t.Fatal(err)
				}
				if len(warm.Classes) == 0 {
					t.Fatal("report carries no classes")
				}
				if !reflect.DeepEqual(warm, cold) {
					t.Errorf("warm report differs from cold:\n-- warm --\n%s-- cold --\n%s", reportText(warm), reportText(cold))
				}
			})
		}
	}
}

// TestMemoKeysDeclaredState: two instances of one program whose rates
// depend on their declared state must not share a memo entry.
func TestMemoKeysDeclaredState(t *testing.T) {
	u32 := filterc.Scalar(filterc.U32)
	k := sim.NewKernel()
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), nil)
	mod, err := rt.NewModule("mod", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"on", "off"} {
		if _, err := rt.NewFilter(mod, pedf.FilterSpec{
			Name:       name,
			SourceFile: "gate.c",
			Source: `void work() {
	if (pedf.data.mode == 1) { pedf.io.o[0] = pedf.data.mode; }
}`,
			Data:    []pedf.VarSpec{{Name: "mode", Type: u32, Init: int64(1 - i)}},
			Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	on, off := rt.ActorByName("on"), rt.ActorByName("off")
	if on.Prog != off.Prog {
		t.Fatal("instances of one source do not share an interned program")
	}
	got, want := ClassifyActors(rt), classifyUncached(rt)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memoized classes differ from uncached:\n got %+v %+v\nwant %+v %+v",
			*got["on"], *got["off"], *want["on"], *want["off"])
	}
	if reflect.DeepEqual(want["on"].Ports, want["off"].Ports) {
		t.Fatalf("test premise: rates should differ by state, both %+v", want["on"].Ports)
	}
}

// TestClassifyConcurrent: runtimes analyzed concurrently share the
// memo (run under -race) and all get the same report.
func TestClassifyConcurrent(t *testing.T) {
	const n = 8
	reps := make([]*analysis.Report, n)
	errs := make([]error, n)
	rts := make([]*pedf.Runtime, n)
	for i := range rts {
		rts[i] = buildH264(t, "rate-stall", 16, 16)
	}
	var wg sync.WaitGroup
	for i := range rts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], _, errs[i] = Analyze(rts[i], "h264")
		}(i)
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("analyze %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reps[i], reps[0]) {
			t.Errorf("report %d differs from report 0:\n%s", i, reportText(reps[i]))
		}
	}
}

func reportText(r *analysis.Report) string {
	s := ""
	for _, c := range r.Classes {
		s += fmt.Sprintf("%s %s %v %v\n", c.Actor, c.Verdict, c.Ports, c.Trace)
	}
	for _, d := range r.Diags {
		s += d.String() + "\n"
	}
	return s
}
