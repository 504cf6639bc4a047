package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"dfdbg/internal/h264"
	"dfdbg/internal/obs"
)

func TestScriptedSession(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"graph",
		"filter pipe catch work",
		"continue",
		"info filters",
		"delete catch 1",
		"continue",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"dfdbg: dataflow debugger on the H.264 case study (16x16, 16 macroblocks, bug=none)",
		"actors and 13 links reconstructed",
		"(gdb) ",
		"pipe work method triggered",
		"program finished",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("session missing %q:\n%s", frag, s)
		}
	}
}

// The interactive analyze/regions commands must run the full pipeline:
// classifier verdicts (FC008 for bh), the DF008 region report, and the
// region clustering DOT with the proven repetition counts.
func TestAnalyzeAndRegionsCommands(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"analyze",
		"regions",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"DF008", "FC008", "statically schedulable",
		"subgraph", "region #0", "pipe x1",
		"branch on a non-constant condition",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("analyze/regions output missing %q:\n%s", frag, s)
		}
	}
}

func TestTraceCommands(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"continue",
		"trace",
		"trace 5",
		"trace balance",
		"trace activity",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "push") || !strings.Contains(s, "events") {
		t.Errorf("trace output missing:\n%s", s)
	}
}

// TestTraceQueriesOrdered checks that `trace balance` lists a stalled
// run's in-flight links in link-id order and `trace activity` lists
// actors in name order, so both print the same text on every run.
func TestTraceQueriesOrdered(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := "continue\ntrace balance\ntrace activity\nquit\n"
	var out strings.Builder
	if err := run(p, "rate-stall", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	var links []int
	var actors []string
	for _, line := range strings.Split(strings.ReplaceAll(out.String(), "(gdb) ", "\n"), "\n") {
		var link, bal int
		if n, _ := fmt.Sscanf(line, "link#%d  +%d tokens in flight", &link, &bal); n == 2 {
			links = append(links, link)
		} else if f := strings.Fields(line); len(f) == 3 && f[2] == "events" {
			actors = append(actors, f[0])
		}
	}
	if len(links) < 2 || !sort.IntsAreSorted(links) {
		t.Errorf("balance links %v: want at least two, in link-id order", links)
	}
	if len(actors) < 2 || !sort.StringsAreSorted(actors) {
		t.Errorf("activity actors %v: want at least two, in name order", actors)
	}
}

func TestSessionWithInjectedBug(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	var out strings.Builder
	err := run(p, "swapped-mb-inputs", faultOpts{}, strings.NewReader("continue\nquit\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bug=swapped-mb-inputs") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestParseBug(t *testing.T) {
	for name, want := range map[string]h264.Bug{
		"none": h264.BugNone, "swapped-mb-inputs": h264.BugSwapMBInputs,
		"rate-stall": h264.BugRateStall, "bad-dc": h264.BugBadDC,
	} {
		got, err := h264.ParseBug(name)
		if err != nil || got != want {
			t.Errorf("ParseBug(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := h264.ParseBug("bogus"); err == nil {
		t.Error("bogus bug accepted")
	}
	var out strings.Builder
	if err := run(h264.Params{W: 16, H: 16, QP: 8}, "bogus", faultOpts{}, strings.NewReader(""), &out); err == nil {
		t.Error("run with bogus bug accepted")
	}
}

// TestFaultSeedSurvivesRestore arms a seeded fault plan from the flags.
// Its first fault is DMA-indexed and fires during the init phase, so it
// must be armed before that phase, both at boot and in every world a
// restore rebuilds.
func TestFaultSeedSurvivesRestore(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := "fault trace\ncheckpoint a\ncontinue\nrestore 2\nfault trace\nquit\n"
	var out strings.Builder
	if err := run(p, "none", faultOpts{seed: 22}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	prompts := strings.Split(out.String(), "(gdb) ")
	if len(prompts) < 6 {
		t.Fatalf("session ended early:\n%s", out.String())
	}
	const fired = "t=0ns delay dma @ 0 ns 396"
	if !strings.Contains(prompts[1], fired) {
		t.Errorf("fault trace at the first prompt = %q, want %q", prompts[1], fired)
	}
	if !strings.Contains(prompts[4], "Restored (replay-verified)") {
		t.Errorf("restore 2 = %q, want a replay-verified restore", prompts[4])
	}
	if !strings.Contains(prompts[5], fired) {
		t.Errorf("fault trace in the restored world = %q, want %q", prompts[5], fired)
	}
}

// TestREPLCheckpointMarks checks that the REPL records each checkpoint
// event exactly once: a save adds one KCheckpoint to the live world,
// and each restore-class command leaves one KRestore in the world it
// swaps in.
func TestREPLCheckpointMarks(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	s, err := open(p, h264.BugNone, faultOpts{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.b.Cur.Shutdown() }()
	if _, err := s.b.Save("boot"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		line            string
		ckpts, restores int
	}{
		{"filter pipe catch work", 1, 0},
		{"checkpoint a", 2, 0},
		{"continue", 2, 0},
		{"continue", 2, 0},
		{"reverse-step", 0, 1},
		{"reverse-continue", 0, 1},
		{"checkpoint b", 1, 1},
		{"restore 1", 0, 1},
	} {
		if res := s.dispatch(step.line); res.Err != nil {
			t.Fatalf("%q: %v", step.line, res.Err)
		}
		var ckpts, restores int
		for _, ev := range s.b.Cur.Rec.Snapshot() {
			switch ev.Kind {
			case obs.KCheckpoint:
				ckpts++
			case obs.KRestore:
				restores++
			}
		}
		if ckpts != step.ckpts || restores != step.restores {
			t.Errorf("after %q: %d checkpoint / %d restore marks, want %d / %d",
				step.line, ckpts, restores, step.ckpts, step.restores)
		}
	}
}
