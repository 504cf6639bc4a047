package dfdbg

import (
	"runtime"
	"testing"

	"dfdbg/internal/h264"
	"dfdbg/internal/world"
)

// decodeMallocCeiling bounds the heap allocations of one batched 16x16
// BenchmarkDecodeThroughput decode once process-wide caches are warm.
// Pooled interpreter activations, in-place aggregate copies and lazily
// built hook arguments hold it near 1.8k (Go 1.24, linux/amd64); before
// them a decode made about 31.9k. The margin absorbs runtime-version
// noise, not a return of per-call or per-firing allocation.
const decodeMallocCeiling = 2500

// TestBatchedDecodeMallocCeiling counts the mallocs of a second batched
// decode (the first compiles and interns the filter programs).
func TestBatchedDecodeMallocCeiling(t *testing.T) {
	p, bits, plans := throughputSetup(t)
	throughputDecode(t, p, bits, plans, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	throughputDecode(t, p, bits, plans, true)
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	if n > decodeMallocCeiling {
		t.Fatalf("second batched decode made %d mallocs, ceiling %d", n, decodeMallocCeiling)
	}
	t.Logf("second batched decode made %d mallocs (ceiling %d)", n, decodeMallocCeiling)
}

// attachedMallocCeiling bounds the heap allocations per data event of a
// debugged 32x32 decode: the world every front end boots (core attached,
// dataflow events recorded with payloads, batch plans armed) run with
// `continue` to completion. Every push and pop is intercepted; typed hook
// records, render-once payloads and allocation-free scalar rendering
// hold it near 2.8 mallocs per event (Go 1.24, linux/amd64); with boxed
// argument lists, per-hit copies and double rendering it was about 18.
const attachedMallocCeiling = 4.0

// TestAttachedDecodeMallocCeiling divides the mallocs of one attached
// `continue` by the data events core intercepted during it.
func TestAttachedDecodeMallocCeiling(t *testing.T) {
	w, err := world.Build(h264.Params{W: 32, H: 32, QP: 8, Seed: 7}, h264.BugNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	events0 := w.D.DataEvents
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := w.CLI.Dispatch("continue")
	runtime.ReadMemStats(&after)
	if res.Err != nil || res.Stop == nil || !res.Stop.Done {
		t.Fatalf("continue = %+v", res)
	}
	events := w.D.DataEvents - events0
	if events < 1000 {
		t.Fatalf("only %d data events intercepted", events)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(events)
	if per > attachedMallocCeiling {
		t.Fatalf("attached decode made %.1f mallocs per data event (%d events), ceiling %.0f",
			per, events, attachedMallocCeiling)
	}
	t.Logf("attached decode made %.2f mallocs per data event (%d events, ceiling %.0f)",
		per, events, attachedMallocCeiling)
}
