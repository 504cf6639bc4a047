// Command dfbench is the repository's end-to-end and per-layer
// benchmark: a single-process, closed-loop load generator over the
// dfdbg packages. It drives them only through their public functions
// and, for the session and fleet workloads, through the wire protocol
// on loopback TCP.
//
//	dfbench -workload decode|session|fleet -seed N -seconds S -trace 0|1 [-out DIR]
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) prints the per-layer metrics: exact counts, spans
// around public calls, a CPU profile bucketed by layer and GC deltas.
// Every run checks every output against a reference computed at set-up
// and exits 1 when any operation failed. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. BENCHMARK.json at the repository root lists the metrics;
// dfbench/LEDGER.md explains them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfdbg/internal/filterc"
)

// endToEnd and perLayer name every metric a run prints, with its unit.
// They mirror BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps
// the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"frames_per_s", "1/s"},
	{"sessions_per_s", "1/s"},
	{"open_ms_p50", "ms"},
	{"finish_ms_p50", "ms"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"step_ms_p50", "ms"}, {"step_ms_p99", "ms"},
		{"query_ms_p50", "ms"}, {"query_ms_p99", "ms"},
		{"analyze_ms_p50", "ms"}, {"drain_s_p50", "s"},
		{"router.drain_wait_ms_p50", "ms"},
		{"samples.step", "count"}, {"samples.query", "count"},
		{"sim.sim_ns_per_frame", "ns"}, {"pedf.firings_per_frame", "count"},
		{"pedf.tokens_per_frame", "count"},
		{"filterc.compile_total", "count"}, {"filterc.cache_hits", "count"},
		{"ckpt.container_bytes", "B"}, {"ckpt.captures_per_session", "count"},
		{"ckpt.state_bytes", "B"},
		{"router.migrations", "count"}, {"router.migration_bytes", "B"},
		{"serve.commands_total", "count"}, {"serve.events_dropped_total", "count"},
		{"pedf.build_ms", "ms"}, {"analysis.plan_ms", "ms"},
		{"analysis.analyze_ms", "ms"}, {"sim.run_ms", "ms"},
		{"pedf.host_ns_per_token", "ns"}, {"pedf.batched_over_per_token", "ratio"},
		{"serve.open_ms", "ms"}, {"ckpt.export_ms", "ms"}, {"ckpt.import_ms", "ms"},
		{"ckpt.replay_ms", "ms"}, {"serve.wire_us", "us"}, {"router.hop_us", "us"},
		{"bench.cycle_self_ms", "ms"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "share"})
	}
	return append(defs,
		metricDef{"samples.cpu", "count"},
		metricDef{"gc.alloc_bytes_per_frame", "B"}, metricDef{"gc.mallocs_per_frame", "count"},
		metricDef{"gc.cycles", "count"},
		metricDef{"trace.overhead_frac", "ratio"})
}()

type metricDef struct{ name, unit string }

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// maxRun caps a run's measured phases so the process ends well within
// three minutes even when the percentile rule asks for a longer run.
const maxRun = 120 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// workload is one traffic mix. A run sets it up setupReps times (keeping
// the last), probes it once when traced, then runs cycles closed-loop.
type workload interface {
	// setup builds the inputs and references; teardown releases them.
	setup(r *run) error
	teardown()
	// probe takes the exact counts and the spans around public calls,
	// serially, on a fixed amount of work.
	probe(r *run) error
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// cycle runs one unit of work for one caller and returns how many
	// sessions (decoder runs, for decode) it completed.
	cycle(r *run, caller int, parent int64) int
	// needs lists the percentiles the run must be able to report.
	needs(traced bool) []need
	// framesPerS is the workload's decoded frames per second.
	framesPerS(r *run) float64
	// layerMetrics fills the workload's per-layer metrics after the
	// traced phase.
	layerMetrics(r *run)
}

// run is one invocation's state.
type run struct {
	cfg    config
	rng    *rand.Rand
	led    ledger
	lat    *samples
	tr     *tracer // nil while untraced
	m      map[string]float64
	frames atomic.Int64 // frames decoded in the measured phase
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "decode, session or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (lengthened until every percentile has 10 samples beyond it)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span and profile files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		os.Exit(2)
	}
	res, err := execute(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "decode":
		return &decodeWL{}, nil
	case "session":
		return &sessionWL{}, nil
	case "fleet":
		return &fleetWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want decode, session or fleet)", name)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload end to end and assembles its result.
func execute(cfg config, w workload) (*result, error) {
	start := time.Now()
	r := &run{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), lat: newSamples(),
		m: make(map[string]float64)}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	r.m["setup_s"] = median(setups)
	r.lat = newSamples()
	r.frames.Store(0)

	budget := maxRun - time.Since(start)
	if cfg.trace {
		if err := w.probe(r); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		// Untraced calibration for trace.overhead_frac: the same cycles
		// with no spans and no profile, half before and half after the
		// traced phase so drift over the run cancels.
		calib := newSamples()
		calibrate := func() {
			r.lat, r.tr = calib, nil
			closedLoop(r, w, time.Duration(cfg.seconds*float64(time.Second)/6), budget/8, nil)
		}
		calibrate()
		r.lat = newSamples()
		r.tr = newTracer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		r.frames.Store(0)
		wall, _ := closedLoop(r, w, time.Duration(cfg.seconds*float64(time.Second)),
			maxRun-time.Since(start), w.needs(true))
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		frames := r.frames.Load()
		traced, tr := r.lat, r.tr
		calibrate()
		r.lat, r.tr = traced, tr
		if err := layerCommon(r, w, wall, frames, calib, prof.Bytes(), &before, &after); err != nil {
			return nil, err
		}
		w.layerMetrics(r)
		if err := writeTraceFiles(r, prof.Bytes()); err != nil {
			return nil, err
		}
	} else {
		wall, done := closedLoop(r, w, time.Duration(cfg.seconds*float64(time.Second)),
			budget, w.needs(false))
		if err := endToEndMetrics(r, w, wall, done); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Attempted: r.led.attempted.Load(), Failed: r.led.failed.Load(),
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.m[d.name], Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range r.led.failures() {
		fmt.Fprintln(os.Stderr, "dfbench: failed:", f)
	}
	return res, nil
}

// closedLoop runs w's callers until minDur has passed and every need is
// met, or until maxDur. It returns the measured wall time and the
// sessions completed.
func closedLoop(r *run, w workload, minDur, maxDur time.Duration, needs []need) (time.Duration, int64) {
	var done atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				el := time.Since(t0)
				if el >= maxDur || (el >= minDur && r.lat.satisfied(needs)) {
					return
				}
				id := r.tr.id()
				cs := time.Now()
				done.Add(int64(w.cycle(r, c, id)))
				ce := time.Now()
				r.tr.add(id, 0, "cycle", 0, cs, ce)
				r.lat.add("cycle", msSince(cs, ce))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0), done.Load()
}

// endToEndMetrics fills the untraced run's metrics.
func endToEndMetrics(r *run, w workload, wall time.Duration, done int64) error {
	for _, n := range w.needs(false) {
		if samplesBeyond(r.lat.count(n.class), n.p) < minBeyond {
			return fmt.Errorf("%s: only %d samples in %v; p%g needs %d",
				n.class, r.lat.count(n.class), maxRun, n.p, minSamples(n.p))
		}
	}
	if done == 0 {
		return fmt.Errorf("no session completed in %v", wall)
	}
	r.m["peak_rss_mb"] = peakRSSMB()
	r.m["sessions_per_s"] = float64(done) / wall.Seconds()
	r.m["frames_per_s"] = w.framesPerS(r)
	var err error
	if r.m["open_ms_p50"], err = percentile(r.lat.get("open"), 50); err != nil {
		return err
	}
	if r.m["finish_ms_p50"], err = percentile(r.lat.get("finish"), 50); err != nil {
		return err
	}
	return nil
}

// layerCommon fills the per-layer metrics every workload shares: the
// command-latency percentiles, CPU shares, GC deltas, generator self
// time and tracing overhead.
func layerCommon(r *run, w workload, wall time.Duration, decoded int64, calib *samples,
	prof []byte, before, after *runtime.MemStats) error {
	for _, n := range w.needs(true) {
		v, err := percentile(r.lat.get(n.class), n.p)
		if err != nil {
			return fmt.Errorf("%s: %w", n.class, err)
		}
		key := fmt.Sprintf("%s_ms_p%g", n.class, n.p)
		switch n.class {
		case "drain":
			key, v = "drain_s_p50", v/1000
		case "drainwait":
			key = "router.drain_wait_ms_p50"
		}
		r.m[key] = v
	}
	r.m["samples.step"] = float64(r.lat.count("step"))
	r.m["samples.query"] = float64(r.lat.count("query"))

	shares, n, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for b, v := range shares {
		r.m["cpu."+b] = v
	}
	r.m["samples.cpu"] = float64(n)

	frames := float64(decoded)
	if frames == 0 {
		return fmt.Errorf("no frame decoded in the traced phase (%v)", wall)
	}
	r.m["gc.alloc_bytes_per_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / frames
	r.m["gc.mallocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / frames
	r.m["gc.cycles"] = float64(after.NumGC - before.NumGC)

	spans := r.tr.snapshot()
	self := selfTimes(spans)
	var cycleSelf []float64
	for _, s := range spans {
		if s.Name == "cycle" {
			cycleSelf = append(cycleSelf, float64(self[s.ID])/1e6)
		}
	}
	r.m["bench.cycle_self_ms"] = median(cycleSelf)

	if u := median(calib.get("cycle")); u > 0 {
		r.m["trace.overhead_frac"] = median(r.lat.get("cycle"))/u - 1
	}
	return nil
}

// writeTraceFiles stores the spans and the CPU profile under -out.
func writeTraceFiles(r *run, prof []byte) error {
	dir := filepath.Join(r.cfg.out, "dfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.cfg.workload, r.cfg.seed))
	if err := r.tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

// countCompiles runs fn and records the compiled-code cache traffic it
// caused: filter programs compiled to bytecode and cache hits.
func (r *run) countCompiles(fn func()) {
	c, h := filterc.CompileTotal(), filterc.CacheHits()
	fn()
	r.m["filterc.compile_total"] = float64(filterc.CompileTotal() - c)
	r.m["filterc.cache_hits"] = float64(filterc.CacheHits() - h)
}

// timed runs fn, records its span and returns its duration in ms.
func (r *run) timed(parent int64, span string, fn func()) float64 {
	id := r.tr.id()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.tr.add(id, parent, span, 0, t0, t1)
	return msSince(t0, t1)
}
