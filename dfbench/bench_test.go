package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/h264"
)

func TestPercentileRule(t *testing.T) {
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: percentile must sort
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples accepted; it has only 9 beyond it")
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 989 {
		// xs[:20] holds 999..980; the 10th smallest is 989.
		t.Errorf("p50 of 20 samples = %v, %v; want 989", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSamplesSatisfied(t *testing.T) {
	s := newSamples()
	needs := []need{{"step", 50}, {"query", 99}}
	for i := 0; i < 20; i++ {
		s.add("step", 1)
	}
	if s.satisfied(needs) {
		t.Fatal("satisfied without any query sample")
	}
	for i := 0; i < 1000; i++ {
		s.add("query", 1)
	}
	if !s.satisfied(needs) {
		t.Fatal("not satisfied with 20 step and 1000 query samples")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cycle", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Errorf("nil tracer id = %d", id)
	}
	tr.add(1, 0, "x", 0, time.Now(), time.Now())
	if n := len(tr.snapshot()); n != 0 {
		t.Errorf("nil tracer kept %d spans", n)
	}
	tr = newTracer()
	id := tr.id()
	tr.add(id, 0, "x", 7, time.Now(), time.Now())
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s span
	if err := json.Unmarshal(bytes.TrimSpace(b), &s); err != nil || s.ID != id || s.Req != 7 {
		t.Errorf("written span = %s (%v)", b, err)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"dfdbg/internal/filterc.(*Interp).run", "dfdbg/internal/pedf.(*Filter).fire"}, "filterc"},
		{[]string{"runtime.memmove", "dfdbg/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "dfdbg/internal/pedf.x"}, "alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"runtime.futex", "runtime.chanrecv", "dfdbg/internal/sim.(*Proc).yield"}, "sched"},
		{[]string{"encoding/json.(*encodeState).string", "dfdbg/internal/serve.(*client).writer"}, "json"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read"}, "net"},
		{[]string{"encoding/json.Unmarshal", "dfdbg/dfbench/client.(*Conn).RoundTrip", "main.main"}, "bench"},
		{[]string{"strconv.Itoa", "dfdbg/internal/analysis/absint.run"}, "analysis"},
		{[]string{"math/big.nat.mul", "dfdbg/internal/ckpt/wire.Encode"}, "ckpt"},
		{[]string{"dfdbg/internal/h264.Encode", "main.main"}, "other"},
		{[]string{"dfdbg/internal/trace.(*Recorder).on"}, "obs"},
		{[]string{"main.(*decodeWL).check"}, "bench"},
		{[]string{"runtime.memclrNoHeapPointers"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
		if !contains(cpuBuckets, c.want) {
			t.Errorf("bucket %q is not reported", c.want)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestCPUSharesSumToOne profiles real work and checks that every sample
// lands in exactly one reported bucket.
func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	var sink []byte
	for time.Now().Before(deadline) {
		sink = append(sink[:0], make([]byte, 4096)...)
		b, _ := json.Marshal(map[string]int{"x": len(sink)})
		sink = append(sink, b...)
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples collected")
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		sum += v
	}
	if len(shares) != len(cpuBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d buckets summing to %v over %d samples", len(shares), sum, n)
	}
	if shares["bench"] == 0 && shares["json"] == 0 && shares["alloc"] == 0 {
		t.Errorf("the test's own work landed nowhere expected: %v", shares)
	}
}

func TestLedger(t *testing.T) {
	var l ledger
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				why := ""
				if i%10 == 0 {
					why = fmt.Sprintf("op %d/%d failed", g, i)
				}
				l.op(why)
			}
		}(g)
	}
	wg.Wait()
	if a, f := l.attempted.Load(), l.failed.Load(); a != 400 || f != 40 {
		t.Errorf("attempted %d failed %d, want 400 and 40", a, f)
	}
	if n := len(l.failures()); n != 5 {
		t.Errorf("kept %d failure descriptions, want the first 5", n)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step: same names, same units, same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly at one
// seed.
var exactCounts = []string{
	"sim.sim_ns_per_frame", "pedf.firings_per_frame", "pedf.tokens_per_frame",
	"filterc.compile_total", "filterc.cache_hits",
	"ckpt.container_bytes", "ckpt.captures_per_session", "ckpt.state_bytes",
	"router.migrations", "router.migration_bytes",
	"serve.commands_total", "serve.events_dropped_total",
}

// probeEnv makes the test binary a one-shot probe process: set up the
// named workload once at the seed, probe it, print the exact counts.
const probeEnv = "DFBENCH_PROBE"

func TestMain(m *testing.M) {
	if spec := os.Getenv(probeEnv); spec != "" {
		var wl string
		var seed int64
		if _, err := fmt.Sscanf(spec, "%s %d", &wl, &seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		counts, err := probeCounts(wl, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b, _ := json.Marshal(counts)
		fmt.Println(string(b))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// probeCounts runs one set-up and the traced run's probe, as a fresh
// benchmark process does, and returns the exact counts.
func probeCounts(wl string, seed int64) (map[string]float64, error) {
	w, err := newWorkload(wl)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: config{workload: wl, seed: seed, trace: true},
		rng: rand.New(rand.NewSource(seed)), lat: newSamples(), m: make(map[string]float64)}
	if err := w.setup(r); err != nil {
		return nil, err
	}
	defer w.teardown()
	if err := w.probe(r); err != nil {
		return nil, err
	}
	if n := r.led.failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d probe operations failed: %v", n, r.led.failures())
	}
	out := make(map[string]float64)
	for _, k := range exactCounts {
		out[k] = r.m[k]
	}
	return out, nil
}

// TestSelfCheck: two fresh processes at one seed report identical exact
// counts for every workload, and a different seed generates different
// inputs.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("starts six benchmark processes")
	}
	for _, wl := range []string{"decode", "session", "fleet"} {
		var runs [2]string
		for i := range runs {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s 3", probeEnv, wl))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s probe: %v\n%s", wl, err, out)
			}
			runs[i] = string(bytes.TrimSpace(out))
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: exact counts differ between two runs at one seed:\n%s\n%s", wl, runs[0], runs[1])
		}
		var counts map[string]float64
		if err := json.Unmarshal([]byte(runs[0]), &counts); err != nil {
			t.Fatal(err)
		}
		if counts["sim.sim_ns_per_frame"] == 0 {
			t.Errorf("%s: probe reported no simulated time", wl)
		}
		t.Logf("%s: %s", wl, runs[0])
	}

	enc := func(seed int64) []byte {
		p := decodeParams(seed)
		b, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bytes.Equal(enc(3), enc(4)) {
		t.Error("decode: seeds 3 and 4 generate the same bitstream")
	}
	a, err := newInputs(3, 2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(4, 2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.params, b.params) || reflect.DeepEqual(a.order, b.order) {
		t.Error("session: seeds 3 and 4 generate the same inputs or order")
	}
}
