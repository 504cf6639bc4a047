package script

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/h264"
)

var testParams = h264.Params{W: 32, H: 32, QP: 8, Seed: 7}

func TestMisBindingSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugSwapMBInputs, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "mis-bound links") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugSwapMBInputs, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	if df.Ops >= ll.Ops {
		t.Errorf("dataflow ops %d should beat lowlevel ops %d for an architecture bug",
			df.Ops, ll.Ops)
	}
	if df.Ops > 5 {
		t.Errorf("dataflow localization took %d ops, expected a handful", df.Ops)
	}
}

func TestRateStallSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugRateStall, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "congested") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugRateStall, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	if df.Ops >= ll.Ops {
		t.Errorf("dataflow ops %d should beat lowlevel ops %d for a token-rate bug",
			df.Ops, ll.Ops)
	}
}

func TestBadDCSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugBadDC, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "DC rounding") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugBadDC, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	// The paper expects roughly comparable effort for purely algorithmic
	// bugs; the dataflow debugger should still not be worse.
	if df.Ops > ll.Ops {
		t.Errorf("dataflow ops %d worse than lowlevel %d for an algorithmic bug", df.Ops, ll.Ops)
	}
}

func TestFirstBadBlockFindsDefect(t *testing.T) {
	bad, err := firstBadBlock(testParams, h264.BugBadDC)
	if err != nil {
		t.Fatal(err)
	}
	if bad < 0 {
		t.Fatal("BadDC produced no observable error")
	}
	// A clean build has no bad block.
	good, err := firstBadBlock(testParams, h264.BugNone)
	if err != nil {
		t.Fatal(err)
	}
	if good != -1 {
		t.Errorf("clean decoder has bad block %d", good)
	}
}

func TestRunAll(t *testing.T) {
	results, err := RunAll(testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for _, r := range results {
		if !r.Localized {
			t.Errorf("session %v/%v failed to localize", r.Bug, r.Strategy)
		}
		if r.Ops == 0 || len(r.Evidence) != r.Ops {
			t.Errorf("session %v/%v: ops=%d evidence=%d", r.Bug, r.Strategy, r.Ops, len(r.Evidence))
		}
		if !strings.Contains(r.String(), string(r.Strategy)) {
			t.Errorf("String() = %q", r.String())
		}
	}
}

func TestUnknownCombination(t *testing.T) {
	if _, err := Run(testParams, h264.BugNone, Dataflow); err == nil {
		t.Error("BugNone session accepted")
	}
}

// TestRunReleasesKernel pins that every localization session unwinds
// its debugger world: after all six sessions the process is back to the
// goroutines it started with.
func TestRunReleasesKernel(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, err := RunAll(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the sessions, want <= %d: a session leaked its kernel", n, base)
	}
}
