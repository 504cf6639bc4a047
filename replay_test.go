package dfdbg

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// decodeWithEngine runs the full h264dec application with every filterc
// interpreter forced onto one engine, and returns the decoded frame plus
// a rendering of the complete token traffic (per-link push/pop/occupancy
// totals in link order).
func decodeWithEngine(t *testing.T, eng filterc.Engine) ([]int, string) {
	t.Helper()
	p := h264.Params{W: 32, H: 32, QP: 8, Seed: 7}
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, nil)
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		t.Fatal(err)
	}
	app, err := h264.Build(rt, p, bits, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for _, f := range rt.Actors() {
		if in := f.Interp(); in != nil {
			in.Engine = eng
		}
	}
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	frame, err := app.OutputFrame()
	if err != nil {
		t.Fatal(err)
	}
	var traffic strings.Builder
	for _, l := range rt.Links() {
		fmt.Fprintf(&traffic, "%s pushes=%d pops=%d occ=%d\n",
			l.String(), l.Pushes(), l.Pops(), l.Occupancy())
	}
	return frame, traffic.String()
}

// TestDifferentialH264Replay is the application-scale end of the
// VM-vs-walker differential suite: the case-study decoder must produce a
// byte-identical output frame and byte-identical token traffic whichever
// engine runs the filters.
func TestDifferentialH264Replay(t *testing.T) {
	wFrame, wTraffic := decodeWithEngine(t, filterc.EngineWalker)
	vFrame, vTraffic := decodeWithEngine(t, filterc.EngineVM)
	if len(wFrame) != len(vFrame) {
		t.Fatalf("frame sizes differ: walker %d, vm %d", len(wFrame), len(vFrame))
	}
	for i := range wFrame {
		if wFrame[i] != vFrame[i] {
			t.Fatalf("frame pixel %d differs: walker %d, vm %d", i, wFrame[i], vFrame[i])
		}
	}
	if wTraffic != vTraffic {
		t.Fatalf("token traffic differs:\n--- walker ---\n%s--- vm ---\n%s", wTraffic, vTraffic)
	}
	if !strings.Contains(wTraffic, "pushes=") || len(wFrame) == 0 {
		t.Fatal("empty traffic or frame: test observed nothing")
	}
}
