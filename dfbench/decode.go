package main

import (
	"fmt"
	"reflect"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/h264"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// decodeWL is the free-running decoder: back-to-back decodes of one
// 8-frame 32x32 QP8 sequence by one caller, with the proven-SDF batch
// plans armed, as dfdbg runs it with no debugger attached.
type decodeWL struct {
	p     h264.Params
	bits  []byte
	plans []pedf.BatchPlan
	ref   []h264.FramePlanes
	stats decodeStats // the set-up reference run's simulated statistics

	planMS []float64 // pedfgraph.BatchPlans time of each set-up
}

// decodeStats are the simulated statistics every decode must reproduce.
type decodeStats struct {
	simNS   uint64
	firings uint64
	tokens  uint64
}

// decodeParams is the decode workload's input for a seed.
func decodeParams(seed int64) h264.Params {
	return h264.Params{W: 32, H: 32, QP: 8, Seed: inputSeed(seed, 0), Frames: 8}
}

// inputSeed derives the i-th h264 input seed of a run (never 0, which
// the session parameters read as "default").
func inputSeed(seed int64, i int) int64 {
	return 1 + (seed*7919+int64(i)*104729)&(1<<31-1)
}

func (w *decodeWL) setup(r *run) error {
	w.p = decodeParams(r.cfg.seed)
	bits, err := h264.EncodeSequence(h264.GenerateSequence(w.p), w.p)
	if err != nil {
		return err
	}
	w.bits = bits
	if w.ref, err = h264.ReferenceDecodeSequence(bits, w.p); err != nil {
		return err
	}
	// Plans are plain data: analyze once on a throwaway instance and
	// reuse them for every decode.
	k := sim.NewKernel()
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), nil)
	if _, err := h264.Build(rt, w.p, bits, false); err != nil {
		return err
	}
	var perr error
	ms := r.timed(0, "analysis.plan", func() { w.plans, perr = pedfgraph.BatchPlans(rt, "h264") })
	if perr != nil {
		return perr
	}
	if len(w.plans) == 0 {
		return fmt.Errorf("no batchable region in the decoder")
	}
	w.planMS = append(w.planMS, ms)
	// Warm-up decode: its simulated statistics are the reference every
	// timed decode must match.
	w.stats = decodeStats{}
	d, err := w.decode(r, 0, true)
	if err != nil {
		return err
	}
	if why := w.check(d); why != "" {
		return fmt.Errorf("warm-up decode: %s", why)
	}
	w.stats = d.stats
	return nil
}

func (w *decodeWL) teardown()    { w.plans, w.ref = nil, nil }
func (w *decodeWL) clients() int { return 1 }

// framesPerS is frames divided by the median decode's wall time (build,
// arm, run and output collection).
func (w *decodeWL) framesPerS(r *run) float64 {
	return float64(w.p.Frames) / (median(r.lat.get("decode")) / 1000)
}

func (w *decodeWL) needs(traced bool) []need {
	return []need{{"open", 50}, {"finish", 50}, {"decode", 50}}
}

// decoded is one decode's outcome.
type decoded struct {
	frames []h264.FramePlanes
	stats  decodeStats
	err    error
}

// decode builds a fresh decoder stack, runs it to completion and
// collects its output.
func (w *decodeWL) decode(r *run, parent int64, batched bool) (decoded, error) {
	var d decoded
	var app *h264.App
	var k *sim.Kernel
	var rt *pedf.Runtime
	var err error
	openMS := r.timed(parent, "pedf.build", func() {
		k = sim.NewKernel()
		rt = pedf.NewRuntime(k, mach.New(k, mach.Config{}), nil)
		if app, err = h264.Build(rt, w.p, w.bits, false); err == nil {
			err = rt.Start()
		}
	})
	if err != nil {
		return d, err
	}
	if batched {
		openMS += r.timed(parent, "pedf.arm", func() { err = rt.EnableBatch(w.plans) })
		if err != nil {
			return d, err
		}
	}
	var st sim.RunStatus
	runMS := r.timed(parent, "sim.run", func() { st, err = k.Run() })
	if err != nil {
		return d, err
	}
	if st != sim.RunIdle {
		return d, fmt.Errorf("decode ended %v, want idle", st)
	}
	outMS := r.timed(parent, "pedf.output", func() { d.frames, d.err = app.OutputSequence() })
	d.stats.simNS = uint64(k.Now())
	for _, f := range rt.Actors() {
		d.stats.firings += f.Firings()
	}
	for _, l := range rt.Links() {
		d.stats.tokens += l.Pushes()
	}
	// Processes still parked on their input links would otherwise
	// outlive the decode.
	r.timed(parent, "sim.shutdown", func() { err = k.Shutdown() })
	if err != nil {
		return d, err
	}
	if batched {
		r.lat.add("open", openMS)
		r.lat.add("build", openMS)
		r.lat.add("finish", runMS)
		r.lat.add("decode", openMS+runMS+outMS)
	} else {
		r.lat.add("decode_pt", openMS+runMS+outMS)
	}
	r.frames.Add(int64(w.p.Frames))
	return d, nil
}

// check compares a decode with the reference decoder and the set-up
// run's statistics; "" means correct.
func (w *decodeWL) check(d decoded) string {
	switch {
	case d.err != nil:
		return fmt.Sprintf("output: %v", d.err)
	case !reflect.DeepEqual(d.frames, w.ref):
		return "decoded frames differ from h264.ReferenceDecodeSequence"
	case w.stats != (decodeStats{}) && d.stats != w.stats:
		return fmt.Sprintf("simulated statistics %+v differ from the set-up run's %+v", d.stats, w.stats)
	}
	return ""
}

func (w *decodeWL) cycle(r *run, _ int, parent int64) int {
	modes := []bool{true}
	if r.cfg.trace {
		// Traced runs pair every batched decode with a per-token one, for
		// the same-run pedf.batched_over_per_token ratio.
		modes = append(modes, false)
	}
	done := 0
	for _, batched := range modes {
		d, err := w.decode(r, parent, batched)
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = w.check(d)
		}
		r.led.op(why)
		if batched && why == "" {
			done++
		}
	}
	return done
}

func (w *decodeWL) probe(r *run) error {
	var d decoded
	var err error
	r.countCompiles(func() { d, err = w.decode(r, 0, true) })
	if err != nil {
		return err
	}
	if why := w.check(d); why != "" {
		return fmt.Errorf("probe decode: %s", why)
	}
	frames := float64(w.p.Frames)
	r.m["sim.sim_ns_per_frame"] = float64(d.stats.simNS) / frames
	r.m["pedf.firings_per_frame"] = float64(d.stats.firings) / frames
	r.m["pedf.tokens_per_frame"] = float64(d.stats.tokens) / frames
	return nil
}

func (w *decodeWL) layerMetrics(r *run) {
	r.m["analysis.plan_ms"] = median(w.planMS)
	r.m["pedf.build_ms"] = median(r.lat.get("build"))
	run := median(r.lat.get("finish"))
	r.m["sim.run_ms"] = run
	if w.stats.tokens > 0 {
		r.m["pedf.host_ns_per_token"] = run * 1e6 / float64(w.stats.tokens)
	}
	if pt := median(r.lat.get("decode_pt")); pt > 0 {
		r.m["pedf.batched_over_per_token"] = median(r.lat.get("decode")) / pt
	}
}
