// Command dfdbg is the interactive dataflow debugger of the paper: a
// GDB-style command line (see `help` inside the session) driving the
// H.264 case-study decoder on the simulated P2012 platform.
//
// Usage:
//
//	dfdbg [-w 32] [-h 32] [-qp 8] [-seed 7] [-bug none|swapped-mb-inputs|rate-stall|bad-dc]
//	      [-faults <spec|file>] [-fault-seed N] [-watchdog 2ms]
//
// Commands arrive on stdin; start with `help`. Typical session:
//
//	(gdb) filter pipe catch work
//	(gdb) continue
//	(gdb) graph
//	(gdb) filter red configure splitter
//	(gdb) filter pipe info last_token
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/cli"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/mind"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/web"
	"dfdbg/internal/world"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		os.Exit(analyzeMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		w    = flag.Int("w", 32, "frame width (multiple of 4)")
		h    = flag.Int("h", 32, "frame height (multiple of 4)")
		qp   = flag.Int("qp", 8, "quantization step")
		seed = flag.Int64("seed", 7, "synthetic content seed")
		bug  = flag.String("bug", "none", "inject a defect: none, swapped-mb-inputs, rate-stall, bad-dc")
		flts = flag.String("faults", "", "fault plan: inline spec (;-separated) or a file path")
		fsd  = flag.Int64("fault-seed", 0, "arm a seeded random fault plan (0 = off)")
		wdog = flag.String("watchdog", "", "progress watchdog threshold, e.g. 2ms (empty = off)")
	)
	flag.Parse()
	p := h264.Params{W: *w, H: *h, QP: *qp, Seed: *seed}
	fo := faultOpts{spec: *flts, seed: *fsd, watchdog: *wdog}
	if err := run(p, *bug, fo, os.Stdin, os.Stdout); err != nil {
		// A fault-plan panic contained by the runtime exits with the
		// structured crash report, never a raw Go panic.
		if rep, ok := pedf.CrashReport(err); ok {
			fmt.Fprintf(os.Stderr, "dfdbg: %s\n", rep)
		} else {
			fmt.Fprintf(os.Stderr, "dfdbg: %v\n", err)
		}
		os.Exit(1)
	}
}

// analyzeMain implements `dfdbg analyze [-top NAME] [-src DIR] [-json]
// design.adl`: load the ADL design, run the full static analysis pass
// (graph + filterc analyzers), print the report, and exit non-zero when
// it contains errors.
func analyzeMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		top    = fs.String("top", "", "top-level composite to analyze (default: first composite)")
		srcDir = fs.String("src", "", "directory of filterc source files (default: ADL directory)")
		asJSON = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: dfdbg analyze [-top NAME] [-src DIR] [-json] design.adl")
		return 2
	}
	app, err := mind.LoadApp(fs.Arg(0), *top, *srcDir)
	if err != nil {
		fmt.Fprintf(errw, "dfdbg: %v\n", err)
		return 1
	}
	rep, err := pedfgraph.CheckRuntime(app.Runtime, app.File.Name)
	if err != nil {
		fmt.Fprintf(errw, "dfdbg: %v\n", err)
		return 1
	}
	if *asJSON {
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(errw, "dfdbg: %v\n", err)
			return 1
		}
	} else {
		rep.WriteText(out)
	}
	if rep.HasErrors() {
		return 1
	}
	return 0
}

// faultOpts bundles the fault-injection flags of one session.
type faultOpts struct {
	spec     string // inline plan or file path ("" = none)
	seed     int64  // random-plan seed (0 = none)
	watchdog string // watchdog threshold ("" = off)
}

// armFaults installs the requested fault plan and watchdog on the
// kernel. An explicit spec wins over a seed; a spec naming an existing
// file is read from disk, anything else parses as an inline plan.
func armFaults(k *sim.Kernel, rt *pedf.Runtime, fo faultOpts, out io.Writer) error {
	switch {
	case fo.spec != "":
		text := fo.spec
		if b, err := os.ReadFile(fo.spec); err == nil {
			text = string(b)
		}
		plan, err := fault.ParsePlan(text)
		if err != nil {
			return err
		}
		k.SetFaults(fault.NewInjector(plan))
		fmt.Fprintf(out, "armed %d fault(s)\n", len(plan.Faults))
	case fo.seed != 0:
		plan := fault.Generate(fo.seed, rt.FaultTargets())
		k.SetFaults(fault.NewInjector(plan))
		fmt.Fprintf(out, "fault plan (seed %d):\n%s", fo.seed, plan)
	}
	if fo.watchdog != "" {
		ns, err := fault.ParseDurationNS(fo.watchdog)
		if err != nil {
			return err
		}
		k.SetWatchdog(sim.Duration(ns))
	}
	return nil
}

// preInit returns the world's pre-init step: the flag-armed fault plan
// and watchdog, and the static pre-flight whose warnings surface before
// the first dispatch (the run proceeds regardless; `dfdbg analyze` is
// the gating form). Both go in before the init phase, so dispatch- and
// DMA-indexed faults count its dispatches and transfers. out receives
// the plan banner and the warnings; checkpoint rebuilds pass io.Discard.
func preInit(fo faultOpts, out io.Writer) func(*sim.Kernel, *pedf.Runtime) error {
	return func(k *sim.Kernel, rt *pedf.Runtime) error {
		if err := armFaults(k, rt, fo, out); err != nil {
			return err
		}
		pedfgraph.InstallPreRun(k, rt, "h264", out)
		return nil
	}
}

// session is the REPL's debug world under checkpoint control, shared
// with the web UI through a solo host. The host's mutex is the dispatch
// guard, so browser queries serialize against commands and a restore
// rebinds the host before anything else runs.
type session struct {
	b    *world.Binding
	host *web.SoloHost
}

// open boots the REPL's world; restore and reverse execution rebuild it
// from the same flags (DESIGN §13).
func open(p h264.Params, bug h264.Bug, fo faultOpts, out io.Writer) (*session, error) {
	w, err := world.Build(p, bug, preInit(fo, out))
	if err != nil {
		return nil, err
	}
	s := &session{
		b: world.Bind(w, func() (*world.World, error) {
			return world.Build(p, bug, preInit(fo, io.Discard))
		}),
		host: web.NewSoloHost("dfdbg", w.Rec, w.K, w.RT, w.Report),
	}
	s.rebind(w)
	s.host.SetExec(func(line string) (web.ExecResult, error) {
		res := s.dispatch(line)
		er := web.ExecResult{Output: res.Output, Quit: res.Quit}
		if res.Err != nil {
			er.Err = res.Err.Error()
		}
		return er, nil
	})
	return s, nil
}

// rebind points the web host and the `web` command at w.
func (s *session) rebind(w *world.World) {
	w.CLI.StartWeb = func(addr string) (string, error) {
		url, _, err := s.host.Serve(addr)
		return url, err
	}
	s.host.Rebind(w.Rec, w.K, w.RT, w.Report)
}

// dispatch runs one command line under the host lock, journals it, and
// adopts the world a restore-class command staged. All mutation — REPL
// and web exec alike — funnels through here, so the swap is race-free
// by construction.
func (s *session) dispatch(line string) cli.Result {
	s.host.Lock()
	defer s.host.Unlock()
	res := s.b.Exec(line)
	s.b.Adopt(s.rebind)
	return res
}

func run(p h264.Params, bugName string, fo faultOpts, in io.Reader, out io.Writer) error {
	bug, err := h264.ParseBug(bugName)
	if err != nil {
		return err
	}
	s, err := open(p, bug, fo, out)
	if err != nil {
		return err
	}
	defer func() { s.b.Cur.Shutdown() }()
	d := s.b.Cur.D
	fmt.Fprintf(out, "dfdbg: dataflow debugger on the H.264 case study "+
		"(%dx%d, %d macroblocks, bug=%s)\n", p.W, p.H, p.NumBlocks(), bug)
	fmt.Fprintf(out, "%d actors and %d links reconstructed; type `help` for commands\n",
		len(d.Actors()), len(d.Links()))

	// The birth checkpoint: reverse execution and `restore` always have
	// a floor to return to. Best effort — a world whose state cannot be
	// captured still debugs, it just cannot rewind.
	if _, err := s.b.Save("boot"); err != nil {
		fmt.Fprintf(out, "checkpointing disabled: %v\n", err)
	}

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "(gdb) ")
		if !sc.Scan() {
			fmt.Fprintf(out, "\n")
			return nil
		}
		res := s.dispatch(sc.Text())
		io.WriteString(out, res.Output)
		if res.Err != nil {
			fmt.Fprintf(out, "error: %v\n", res.Err)
		}
		if res.Quit {
			return nil
		}
	}
}
