package dfdbg

import (
	"runtime"
	"testing"
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
