package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/dfbench/client"
	"dfdbg/internal/router"
	"dfdbg/internal/serve"
)

// fleetWL is two wire clients through an in-process dfrouter over two
// in-process dfserve workers. Each cycle is one round: boot a fresh
// fleet, open fleetSessions sessions spread over the workers by
// rendezvous placement, run the script on them interleaved, drain w1 at
// a seeded command count, kill everything and close the fleet.
type fleetWL struct {
	in      *inputs
	drainAt int64 // round-wide command count at which w1 is drained
}

const (
	fleetClients  = 2
	fleetSessions = 4 // per round, split evenly over the clients
	drainWorker   = "w1"
)

// fleet is one booted router over its workers.
type fleet struct {
	r       *router.Router
	rdone   chan error
	addr    string
	workers []*serve.Server
	wdone   []chan error
	waddrs  map[string]string
}

// bootFleet starts two workers and a router over them and waits until
// the router reports both healthy.
func bootFleet() (*fleet, error) {
	f := &fleet{waddrs: make(map[string]string)}
	var specs []string
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("w%d", i)
		srv, addr, done, err := startServer(serve.Options{Name: name, IdleTimeout: -1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		f.wdone = append(f.wdone, done)
		f.waddrs[name] = addr
		specs = append(specs, name+"="+addr)
	}
	f.r = router.New(router.Options{Workers: specs, PingInterval: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.addr = ln.Addr().String()
	f.rdone = make(chan error, 1)
	go func() { f.rdone <- f.r.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for metricMap(f.r.Registry().Snapshot())["router_workers_healthy"] < 2 {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet: workers not healthy after 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return f, nil
}

// close stops the router and the workers and waits for their serve
// loops to return.
func (f *fleet) close() {
	if f.r != nil {
		f.r.Close()
		if f.rdone != nil {
			<-f.rdone
		}
	}
	for i, srv := range f.workers {
		srv.Close()
		<-f.wdone[i]
	}
}

func (w *fleetWL) setup(r *run) error {
	in, err := newInputs(r.cfg.seed, 2, 16, 16)
	if err != nil {
		return err
	}
	w.in = in
	w.drainAt = drainPoint(r.rng.Int63())
	// Boot one fleet to prove the topology comes up; rounds boot their
	// own.
	f, err := bootFleet()
	if err != nil {
		return err
	}
	f.close()
	return nil
}

func (w *fleetWL) teardown()                 {}
func (w *fleetWL) clients() int              { return 1 } // a round drives its own fleetClients
func (w *fleetWL) framesPerS(r *run) float64 { return scriptFramesPerS(r) }

func (w *fleetWL) needs(traced bool) []need {
	if !traced {
		return []need{{"open", 50}, {"finish", 50}, {"step", 50}}
	}
	return []need{{"step", 50}, {"step", 99}, {"query", 50}, {"query", 99},
		{"analyze", 50}, {"drain", 50}, {"drainwait", 50}}
}

// drainPoint picks the round-wide command count at which the drain
// replaces a command. It falls among the read-only queries that follow
// the catchpoint steps, so the commands a migration blocks are queries
// (query_ms_p99, router.drain_wait_ms_p50) and the step, finish and
// per-session decode medians compare across seeds.
func drainPoint(seed int64) int64 {
	first := 0
	for i, sl := range script {
		if sl.class == "step" {
			first = i + 1
		}
	}
	n := 0
	for first+n < len(script) && script[first+n].class == "query" {
		n++
	}
	return int64(first*fleetSessions) + 1 + seed%int64(n*fleetSessions)
}

// interval is one timed op's span on the wall clock.
type interval struct{ a, b time.Time }

// roundStats is what a round reports besides the shared samples.
type roundStats struct {
	f        *fleet
	moved    int
	drainBeg time.Time
	drainEnd time.Time
}

// round runs one fleet round. conns is the number of client connections
// (1 gives a serial, deterministic interleaving for the probe). keep
// leaves the fleet running for the caller to inspect and close.
func (w *fleetWL) round(r *run, parent int64, conns int, keep bool) (int, *roundStats, error) {
	var f *fleet
	var err error
	r.timed(parent, "fleet.boot", func() { f, err = bootFleet() })
	if err != nil {
		return 0, nil, err
	}
	rs := &roundStats{f: f}
	var cmds atomic.Int64
	var drainOnce sync.Once
	var mu sync.Mutex
	var ops []interval
	var wg sync.WaitGroup
	var done atomic.Int64
	var dialErr error
	for c := 0; c < conns; c++ {
		conn, err := client.Dial(f.addr)
		if err != nil {
			dialErr = err
			break
		}
		wg.Add(1)
		go func(conn *client.Conn) {
			defer wg.Done()
			defer conn.Close()
			var sess []*wireSession
			for i := 0; i < fleetSessions/conns; i++ {
				sess = append(sess, r.openSession(conn, w.in, w.in.take(), parent))
			}
			for line := 0; line < len(script); line++ {
				for _, ws := range sess {
					if cmds.Add(1) == w.drainAt {
						drainOnce.Do(func() { w.drain(r, conn, rs, parent) })
					}
					if ws.id == "" {
						r.failRest(ws)
						continue
					}
					a, b := r.step(ws, w.in)
					mu.Lock()
					ops = append(ops, interval{a, b})
					mu.Unlock()
				}
			}
			for _, ws := range sess {
				if r.kill(ws) {
					done.Add(1)
				}
			}
			r.reportLost(conn)
		}(conn)
	}
	wg.Wait()
	if dialErr != nil {
		f.close()
		return 0, nil, dialErr
	}
	if !rs.drainBeg.IsZero() {
		for _, op := range ops {
			if op.a.Before(rs.drainEnd) && op.b.After(rs.drainBeg) {
				r.lat.add("drainwait", msSince(op.a, op.b))
			}
		}
	}
	if !keep {
		r.timed(parent, "fleet.close", f.close)
	}
	return int(done.Load()), rs, nil
}

// drain issues the round's drain of w1 in place of the caller's next
// command.
func (w *fleetWL) drain(r *run, conn *client.Conn, rs *roundStats, parent int64) {
	id := r.tr.id()
	t0 := time.Now()
	resp, err := conn.RoundTrip(serve.Request{Op: "drain", Worker: drainWorker})
	t1 := time.Now()
	r.tr.add(id, parent, "wire.drain", conn.LastID(), t0, t1)
	r.lat.add("drain", msSince(t0, t1))
	rs.drainBeg, rs.drainEnd = t0, t1
	why := opFailure("drain "+drainWorker, resp, err)
	r.led.op(why)
	rs.moved = len(resp.Sessions)
}

func (w *fleetWL) cycle(r *run, _ int, parent int64) int {
	n, _, err := w.round(r, parent, fleetClients, false)
	if err != nil {
		r.led.op("fleet round: " + err.Error())
	}
	return n
}

func (w *fleetWL) probe(r *run) error {
	n, rs, err := w.round(r, 0, 1, true)
	if err != nil {
		return err
	}
	defer rs.f.close()
	if n != fleetSessions {
		return fmt.Errorf("probe round completed %d of %d sessions: %v", n, fleetSessions, r.led.failures())
	}
	rm := metricMap(rs.f.r.Registry().Snapshot())
	r.m["router.migrations"] = rm["router_migrations_total"]
	r.m["router.migration_bytes"] = rm["router_migration_bytes_total"]
	if int(rm["router_migrations_total"]) != rs.moved {
		return fmt.Errorf("probe: router counted %v migrations, drain reported %d", rm["router_migrations_total"], rs.moved)
	}
	dropped := rm["router_events_dropped_total"]
	var cmds float64
	for _, srv := range rs.f.workers {
		wm := metricMap(srv.Manager().Registry().Snapshot())
		cmds += wm["commands_total"]
		dropped += wm["events_dropped_total"]
	}
	r.m["serve.commands_total"] = cmds
	r.m["serve.events_dropped_total"] = dropped
	r.m["sim.sim_ns_per_frame"] = float64(finishTimeNS(w.in.gold[0]))

	// A session placed after the drain lands on w2: it gives the
	// capture counts, then the router hop (the same read-only command
	// through the router and straight to the worker, interleaved).
	rc, err := client.Dial(rs.f.addr)
	if err != nil {
		return err
	}
	defer rc.Close()
	var ws *wireSession
	r.countCompiles(func() { ws = r.openSession(rc, w.in, 0, 0) })
	if ws.id == "" {
		return fmt.Errorf("hop probe: new failed")
	}
	for ws.next < len(script) {
		r.step(ws, w.in)
	}
	if err := captures(r, rs.f.workers[1].Manager(), ws.id); err != nil {
		return err
	}
	if err := hopProbe(r, rs.f, rc, ws.id); err != nil {
		return err
	}
	if !r.kill(ws) {
		return fmt.Errorf("hop probe session failed: %v", r.led.failures())
	}
	if err := stackProbe(r, w.in.params[0]); err != nil {
		return err
	}
	cut := int(w.drainAt / fleetSessions)
	return ckptProbe(r, rs.f.workers[1].Manager(), w.in, cut)
}

// hopProbe measures router.hop_us (router round trip minus direct worker
// round trip) and serve.wire_us (direct worker round trip minus
// Session.Exec) on one session.
func hopProbe(r *run, f *fleet, rc *client.Conn, id string) error {
	var owner *serve.Server
	var name string
	for i, srv := range f.workers {
		if _, err := srv.Manager().Get(id); err == nil {
			owner, name = srv, fmt.Sprintf("w%d", i+1)
		}
	}
	if owner == nil {
		return fmt.Errorf("hop probe: no worker owns %s", id)
	}
	s, _ := owner.Manager().Get(id)
	wc, err := client.Dial(f.waddrs[name])
	if err != nil {
		return err
	}
	defer wc.Close()
	var viaRouter, direct, inproc []float64
	for i := 0; i < probePairs; i++ {
		t0 := time.Now()
		a, errA := rc.Exec(id, "info filters")
		t1 := time.Now()
		b, errB := wc.Exec(id, "info filters")
		t2 := time.Now()
		c, errC := s.Exec("info filters")
		t3 := time.Now()
		if why := opFailure("hop probe via router", a, errA); why != "" {
			return fmt.Errorf("%s", why)
		}
		if why := opFailure("hop probe direct", b, errB); why != "" {
			return fmt.Errorf("%s", why)
		}
		if errC != nil || c.Err != nil || a.Output != b.Output || b.Output != c.Output {
			return fmt.Errorf("hop probe: router, worker and in-process outputs disagree")
		}
		viaRouter = append(viaRouter, msSince(t0, t1))
		direct = append(direct, msSince(t1, t2))
		inproc = append(inproc, msSince(t2, t3))
	}
	r.m["router.hop_us"] = (median(viaRouter) - median(direct)) * 1000
	r.m["serve.wire_us"] = (median(direct) - median(inproc)) * 1000
	return nil
}

func (w *fleetWL) layerMetrics(r *run) {}
