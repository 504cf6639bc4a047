package serve

import (
	"sync"
	"testing"

	"dfdbg/internal/filterc"
)

// analyzeOutput opens a session on mgr, runs `analyze` and closes it.
func analyzeOutput(mgr *Manager, params SessionParams) (string, error) {
	s, err := mgr.Create(params)
	if err != nil {
		return "", err
	}
	defer s.Close("done")
	res, err := s.Exec("analyze")
	if err != nil {
		return "", err
	}
	if res.Err != nil {
		return "", res.Err
	}
	return res.Output, nil
}

// TestConcurrentOpenAnalyze opens sessions concurrently, so their
// builds and analyses race on the shared program intern table and
// classification memo (run under -race), and requires every `analyze`
// output to be byte-identical to a solo session's.
func TestConcurrentOpenAnalyze(t *testing.T) {
	const n = 8
	params := SessionParams{W: 16, H: 16, QP: 8, Seed: 11, Bug: "rate-stall"}
	mgr := NewManager(n, 0)
	defer mgr.CloseAll()
	outs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = analyzeOutput(mgr, params)
		}(i)
	}
	wg.Wait()

	solo, err := analyzeOutput(NewManager(1, 0), params)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	if len(solo) < 100 {
		t.Fatalf("suspiciously small analyze output:\n%s", solo)
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if outs[i] != solo {
			t.Errorf("session %d analyze output diverged from solo run:\n%s", i, firstDiff(solo, outs[i]))
		}
	}
}

// TestProcessTablesBounded: the process-wide tables grow with the
// number of distinct programs, not with the number of sessions. After
// the first open, repeated create/exec/close cycles with the same
// params compile nothing and leave both table gauges unchanged.
func TestProcessTablesBounded(t *testing.T) {
	mgr := NewManager(1, 0)
	params := SessionParams{W: 16, H: 16, QP: 8, Seed: 7}
	gauges := func() (interned, memo float64) {
		for _, m := range mgr.Registry().Snapshot() {
			switch m.Name {
			case "filterc_programs_interned":
				interned = m.Value
			case "analysis_class_memo_entries":
				memo = m.Value
			}
		}
		return interned, memo
	}
	if _, err := analyzeOutput(mgr, params); err != nil {
		t.Fatal(err)
	}
	compiled := filterc.CompileTotal()
	interned, memo := gauges()
	if interned == 0 || memo == 0 {
		t.Fatalf("gauges after first open: interned=%v memo=%v, want both > 0", interned, memo)
	}
	for i := 0; i < 100; i++ {
		if _, err := analyzeOutput(mgr, params); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if got := filterc.CompileTotal(); got != compiled {
			t.Fatalf("cycle %d: filterc compiled %d more programs", i, got-compiled)
		}
		if gi, gm := gauges(); gi != interned || gm != memo {
			t.Fatalf("cycle %d: tables grew: interned %v → %v, memo %v → %v", i, interned, gi, memo, gm)
		}
	}
}
