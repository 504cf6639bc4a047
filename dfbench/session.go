package main

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"dfdbg/dfbench/client"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/serve"
	"dfdbg/internal/sim"
)

// scriptLine is one exec of the scripted debug session and the latency
// class its round trip is recorded under.
type scriptLine struct{ line, class string }

// script is what every session runs between `new` and `kill`: a
// catchpoint on the pipe filter's WORK, eight continues that stop at
// it, read-only queries, then the catchpoint is deleted, the decode runs
// to completion and the static analysis runs.
var script = func() []scriptLine {
	s := []scriptLine{{"info filters", "query"}, {"filter pipe catch work", "ctl"}}
	for i := 0; i < 8; i++ {
		s = append(s, scriptLine{"continue", "step"})
	}
	return append(s,
		scriptLine{"filter pipe info last_token", "query"},
		scriptLine{"info links", "query"},
		scriptLine{"trace 30", "query"},
		scriptLine{"graph", "query"},
		scriptLine{"fault status", "query"},
		scriptLine{"delete catch 1", "ctl"},
		scriptLine{"continue", "finish"},
		scriptLine{"analyze", "analyze"})
}()

// golden runs the script on a solo in-process session (no wire, no
// router, no migration) and returns each line's canonical rendering. It
// checks the script's shape: no errors, the eight continues stop short
// of completion and the last one completes.
func golden(params serve.SessionParams) ([]string, error) {
	mgr := serve.NewManager(1, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(params)
	if err != nil {
		return nil, fmt.Errorf("golden create: %w", err)
	}
	out := make([]string, len(script))
	for i, sl := range script {
		res, err := s.Exec(sl.line)
		if err != nil {
			return nil, fmt.Errorf("golden %q: %w", sl.line, err)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("golden %q: %v", sl.line, res.Err)
		}
		switch sl.class {
		case "step":
			if res.Stop == nil || res.Stop.Done {
				return nil, fmt.Errorf("golden: continue #%d did not stop at the catchpoint", i)
			}
		case "finish":
			if res.Stop == nil || !res.Stop.Done {
				return nil, fmt.Errorf("golden: final continue did not run to completion")
			}
		}
		out[i] = renderResult(sl.line, res)
	}
	return out, nil
}

// renderResult renders an in-process exec result the way
// client.RenderResponse renders the same command's wire response.
func renderResult(line string, res cli.Result) string {
	var sp *client.StopPoint
	if res.Stop != nil {
		sp = &client.StopPoint{Reason: res.Stop.Reason, TimeNS: res.Stop.TimeNS}
	}
	errText := ""
	if res.Err != nil {
		errText = res.Err.Error()
	}
	return client.Render(line, res.Output, errText, sp)
}

// inputs is a run's set of session inputs and their golden transcripts,
// with the seeded order sessions take them in.
type inputs struct {
	params []serve.SessionParams
	gold   [][]string
	order  []int
	next   atomic.Int64
}

// newInputs derives n session inputs of the given size from the seed and
// computes their golden transcripts.
func newInputs(seed int64, n, w, h int) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < n; i++ {
		p := serve.SessionParams{W: w, H: h, QP: 8, Seed: inputSeed(seed, i)}
		g, err := golden(p)
		if err != nil {
			return nil, err
		}
		in.params = append(in.params, p)
		in.gold = append(in.gold, g)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		in.order = append(in.order, rng.Intn(n))
	}
	return in, nil
}

// take returns the next input index in seeded order.
func (in *inputs) take() int {
	return in.order[int(in.next.Add(1)-1)%len(in.order)]
}

// wireSession is one scripted session driven over a client connection.
type wireSession struct {
	conn   *client.Conn
	id     string
	input  int
	next   int  // next script line
	ok     bool // every op so far succeeded
	parent int64
}

// openSession sends `new` and records the open latency. A session that
// did not open has no id.
func (r *run) openSession(c *client.Conn, in *inputs, input int, parent int64) *wireSession {
	ws := &wireSession{conn: c, input: input, parent: parent, ok: true}
	p := in.params[input]
	id := r.tr.id()
	t0 := time.Now()
	resp, err := c.RoundTrip(serve.Request{Op: "new", Params: &p})
	t1 := time.Now()
	r.tr.add(id, parent, "wire.new", c.LastID(), t0, t1)
	r.lat.add("open", msSince(t0, t1))
	why := opFailure("new", resp, err)
	r.led.op(why)
	if why != "" {
		ws.ok = false
		return ws
	}
	ws.id = resp.Session
	return ws
}

// opFailure describes a failed round trip ("" = OK).
func opFailure(what string, resp serve.Response, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", what, err)
	case !resp.OK:
		return fmt.Sprintf("%s: %s", what, resp.Error)
	}
	return ""
}

// step runs the session's next script line, checks it against the
// golden transcript and returns the op's interval.
func (r *run) step(ws *wireSession, in *inputs) (time.Time, time.Time) {
	sl := script[ws.next]
	i := ws.next
	ws.next++
	id := r.tr.id()
	t0 := time.Now()
	resp, err := ws.conn.Exec(ws.id, sl.line)
	t1 := time.Now()
	r.tr.add(id, ws.parent, "wire."+sl.class, ws.conn.LastID(), t0, t1)
	r.lat.add(sl.class, msSince(t0, t1))
	why := opFailure(fmt.Sprintf("session %s %q", ws.id, sl.line), resp, err)
	if why == "" && client.RenderResponse(sl.line, resp) != in.gold[ws.input][i] {
		why = fmt.Sprintf("session %s %q: output differs from the solo golden run", ws.id, sl.line)
	}
	if why != "" {
		ws.ok = false
	}
	r.led.op(why)
	return t0, t1
}

// kill ends the session and reports whether the whole script succeeded.
func (r *run) kill(ws *wireSession) bool {
	if ws.id == "" {
		return false
	}
	id := r.tr.id()
	t0 := time.Now()
	resp, err := ws.conn.RoundTrip(serve.Request{Op: "kill", Session: ws.id})
	r.tr.add(id, ws.parent, "wire.kill", ws.conn.LastID(), t0, time.Now())
	why := opFailure("kill "+ws.id, resp, err)
	r.led.op(why)
	if ws.ok && why == "" {
		r.frames.Add(1)
		return true
	}
	return false
}

// reportLost counts each session the connection saw closed under it as
// a failed operation.
func (r *run) reportLost(c *client.Conn) {
	for _, s := range c.Lost {
		r.led.op("session " + s + " lost: session-closed event")
	}
	c.Lost = nil
}

// failRest counts a lost session's remaining script lines as failed.
func (r *run) failRest(ws *wireSession) {
	for ; ws.next < len(script); ws.next++ {
		r.led.op(fmt.Sprintf("session lost before %q", script[ws.next].line))
	}
}

// sessionWL is two wire clients against one in-process dfserve on
// loopback, each running scripted 32x32 sessions one at a time.
type sessionWL struct {
	in    *inputs
	srv   *serve.Server
	done  chan error
	conns []*client.Conn
}

const sessionClients = 2

func (w *sessionWL) setup(r *run) error {
	in, err := newInputs(r.cfg.seed, 2, 32, 32)
	if err != nil {
		return err
	}
	w.in = in
	var addr string
	w.srv, addr, w.done, err = startServer(serve.Options{IdleTimeout: -1})
	if err != nil {
		return err
	}
	for i := 0; i < sessionClients; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	return nil
}

// startServer serves a dfserve worker on a loopback port and returns its
// address; the channel yields Serve's result once the server is closed.
func startServer(opts serve.Options) (*serve.Server, string, chan error, error) {
	srv := serve.NewServer(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done, nil
}

func (w *sessionWL) teardown() {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.srv != nil {
		w.srv.Close()
		<-w.done
		w.srv = nil
	}
}

func (w *sessionWL) clients() int              { return sessionClients }
func (w *sessionWL) framesPerS(r *run) float64 { return scriptFramesPerS(r) }

// scriptFramesPerS is the decode rate under the debugger: a session's
// frame is decoded by eight continues that stop at the catchpoint and
// one that runs to completion, so one frame takes 8 median steps plus
// the median finish.
func scriptFramesPerS(r *run) float64 {
	steps := 0
	for _, sl := range script {
		if sl.class == "step" {
			steps++
		}
	}
	return 1000 / (float64(steps)*median(r.lat.get("step")) + median(r.lat.get("finish")))
}

func (w *sessionWL) needs(traced bool) []need {
	if !traced {
		return []need{{"open", 50}, {"finish", 50}, {"step", 50}}
	}
	return []need{{"step", 50}, {"step", 99}, {"query", 50}, {"query", 99}, {"analyze", 50}}
}

func (w *sessionWL) cycle(r *run, caller int, parent int64) int {
	ws := r.openSession(w.conns[caller], w.in, w.in.take(), parent)
	if ws.id == "" {
		r.failRest(ws)
		return 0
	}
	for ws.next < len(script) {
		r.step(ws, w.in)
	}
	ok := r.kill(ws)
	r.reportLost(ws.conn)
	if ok {
		return 1
	}
	return 0
}

func (w *sessionWL) probe(r *run) error {
	// One serial wire session: the server-side exact counts.
	reg := w.srv.Manager().Registry()
	before := metricMap(reg.Snapshot())
	c := w.conns[0]
	var ws *wireSession
	r.countCompiles(func() { ws = r.openSession(c, w.in, 0, 0) })
	if ws.id == "" {
		return fmt.Errorf("probe session did not open")
	}
	for ws.next < len(script) {
		r.step(ws, w.in)
	}
	if err := captures(r, w.srv.Manager(), ws.id); err != nil {
		return err
	}
	if !r.kill(ws) {
		return fmt.Errorf("probe session failed: %v", r.led.failures())
	}
	after := metricMap(reg.Snapshot())
	r.m["serve.commands_total"] = after["commands_total"] - before["commands_total"]
	r.m["serve.events_dropped_total"] = after["events_dropped_total"] - before["events_dropped_total"]
	r.m["sim.sim_ns_per_frame"] = float64(finishTimeNS(w.in.gold[0]))

	if err := wireProbe(r, w.srv, c, w.in.params[0]); err != nil {
		return err
	}
	if err := stackProbe(r, w.in.params[0]); err != nil {
		return err
	}
	return ckptProbe(r, w.srv.Manager(), w.in, len(script))
}

func (w *sessionWL) layerMetrics(r *run) {}

// metricMap indexes a registry snapshot by metric name (unlabelled
// metrics only).
func metricMap(vs []obs.MetricValue) map[string]float64 {
	m := make(map[string]float64, len(vs))
	for _, v := range vs {
		if v.Labels == "" {
			m[v.Name] = v.Value
		}
	}
	return m
}

// finishTimeNS is the simulated time at which the golden run completed.
func finishTimeNS(gold []string) uint64 {
	for i, sl := range script {
		if sl.class == "finish" {
			var t uint64
			line := gold[i][strings.LastIndex(gold[i], "@")+1:]
			fmt.Sscanf(line, "%d", &t)
			return t
		}
	}
	return 0
}

// captures records the session's auto-checkpoint count and the size of
// its latest checkpoint's state.
func captures(r *run, mgr *serve.Manager, id string) error {
	s, err := mgr.Get(id)
	if err != nil {
		return err
	}
	cps, err := s.Checkpoints()
	if err != nil {
		return err
	}
	r.m["ckpt.captures_per_session"] = float64(len(cps))
	if len(cps) > 0 {
		r.m["ckpt.state_bytes"] = float64(cps[len(cps)-1].Bytes)
	}
	return nil
}

// probePairs is how many interleaved pairs a round-trip difference
// takes its medians over.
const probePairs = 40

// wireProbe measures serve.wire_us: the wire round trip of a read-only
// command minus Session.Exec of the same command on the same session.
func wireProbe(r *run, srv *serve.Server, c *client.Conn, p serve.SessionParams) error {
	resp, err := c.RoundTrip(serve.Request{Op: "new", Params: &p})
	if why := opFailure("wire probe new", resp, err); why != "" {
		return fmt.Errorf("%s", why)
	}
	defer c.RoundTrip(serve.Request{Op: "kill", Session: resp.Session})
	s, err := srv.Manager().Get(resp.Session)
	if err != nil {
		return err
	}
	var wire, direct []float64
	for i := 0; i < probePairs; i++ {
		t0 := time.Now()
		wr, err := c.Exec(resp.Session, "info filters")
		t1 := time.Now()
		dr, derr := s.Exec("info filters")
		t2 := time.Now()
		if why := opFailure("wire probe exec", wr, err); why != "" {
			return fmt.Errorf("%s", why)
		}
		if derr != nil || dr.Err != nil || dr.Output != wr.Output {
			return fmt.Errorf("wire probe: in-process exec disagrees with the wire")
		}
		wire = append(wire, msSince(t0, t1))
		direct = append(direct, msSince(t1, t2))
	}
	r.m["serve.wire_us"] = (median(wire) - median(direct)) * 1000
	return nil
}

// stackProbe times the public calls a session's `new` makes, on a stack
// built the way dfserve builds one: h264.BuildVariant + Runtime.Start
// (pedf.build_ms), pedfgraph.EnableBatch (analysis.plan_ms), and the
// `analyze` command's pedfgraph.Analyze (analysis.analyze_ms).
func stackProbe(r *run, p serve.SessionParams) error {
	var build, plan, analyze []float64
	hp := h264.Params{W: p.W, H: p.H, QP: p.QP, Seed: p.Seed}
	bits, err := h264.Encode(h264.GenerateFrame(hp), hp)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		var k *sim.Kernel
		var rt *pedf.Runtime
		var err error
		build = append(build, r.timed(0, "pedf.build", func() {
			k = sim.NewKernel()
			k.SetObserver(obs.NewRecorder(1 << 16))
			low := lowdbg.New(k, dbginfo.NewTable())
			core.Attach(low)
			rt = pedf.NewRuntime(k, mach.New(k, mach.Config{}), low)
			if _, err = h264.BuildVariant(rt, hp, bits, h264.BugNone); err == nil {
				if err = rt.Start(); err == nil {
					_, err = k.RunUntil(0)
				}
			}
		}))
		if err != nil {
			return err
		}
		plan = append(plan, r.timed(0, "analysis.plan", func() { _, err = pedfgraph.EnableBatch(rt, "h264") }))
		if err != nil {
			return err
		}
		analyze = append(analyze, r.timed(0, "analysis.analyze", func() { _, _, err = pedfgraph.Analyze(rt, "h264") }))
		if err != nil {
			return err
		}
		if err := k.Shutdown(); err != nil {
			return err
		}
	}
	r.m["pedf.build_ms"] = median(build)
	r.m["analysis.plan_ms"] = median(plan)
	r.m["analysis.analyze_ms"] = median(analyze)
	return nil
}

// ckptProbe times a migration's halves in process: Manager.Create
// (serve.open_ms), the script up to cut, Session.Export (ckpt.export_ms,
// ckpt.container_bytes) and Manager.Import (ckpt.import_ms: rebuild,
// journal replay and byte-compare), whose excess over a fresh open is
// ckpt.replay_ms. The imported session must finish the script
// identically.
func ckptProbe(r *run, mgr *serve.Manager, in *inputs, cut int) error {
	var open, export, imp []float64
	for i := 0; i < 3; i++ {
		var s *serve.Session
		var err error
		open = append(open, r.timed(0, "serve.open", func() { s, err = mgr.Create(in.params[0]) }))
		if err != nil {
			return err
		}
		for _, sl := range script[:cut] {
			if res, err := s.Exec(sl.line); err != nil || res.Err != nil {
				return fmt.Errorf("ckpt probe %q: %v %v", sl.line, err, res.Err)
			}
		}
		var params serve.SessionParams
		var cont []byte
		export = append(export, r.timed(0, "ckpt.export", func() { params, cont, err = s.Export() }))
		if err != nil {
			return fmt.Errorf("ckpt probe export: %w", err)
		}
		r.m["ckpt.container_bytes"] = float64(len(cont))
		var s2 *serve.Session
		imp = append(imp, r.timed(0, "ckpt.import", func() {
			s2, err = mgr.Import(fmt.Sprintf("%s-import%d", s.ID, i), params, cont)
		}))
		if err != nil {
			return fmt.Errorf("ckpt probe import: %w", err)
		}
		for j := cut; j < len(script); j++ {
			res, err := s2.Exec(script[j].line)
			if err != nil || res.Err != nil {
				return fmt.Errorf("ckpt probe after import %q: %v %v", script[j].line, err, res.Err)
			}
			if renderResult(script[j].line, res) != in.gold[0][j] {
				return fmt.Errorf("ckpt probe: imported session diverged at %q", script[j].line)
			}
		}
		s2.Close("probe done")
	}
	r.m["serve.open_ms"] = median(open)
	r.m["ckpt.export_ms"] = median(export)
	r.m["ckpt.import_ms"] = median(imp)
	r.m["ckpt.replay_ms"] = median(imp) - median(open)
	return nil
}
