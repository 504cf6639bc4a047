package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/serve"
)

var tinyParams = &serve.SessionParams{W: 16, H: 16, QP: 8, Seed: 7}

// fleet is a test fixture: n in-process dfserve workers behind one
// router.
type fleet struct {
	t       testing.TB
	r       *Router
	addr    string // router client address
	workers []*serve.Server
	waddrs  []string
}

// startFleet boots n workers named w1..wn and a router over them, and
// waits until every worker passed its first health check. An optional
// ropts configures the router (Workers is filled in; PingInterval
// defaults to 200ms).
func startFleet(t testing.TB, n int, wopts serve.Options, ropts ...Options) *fleet {
	t.Helper()
	f := &fleet{t: t}
	var specs []string
	for i := 0; i < n; i++ {
		opts := wopts
		opts.Name = fmt.Sprintf("w%d", i+1)
		if opts.IdleTimeout == 0 {
			opts.IdleTimeout = -1
		}
		srv := serve.NewServer(opts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		f.workers = append(f.workers, srv)
		f.waddrs = append(f.waddrs, ln.Addr().String())
		specs = append(specs, fmt.Sprintf("%s=%s", opts.Name, ln.Addr().String()))
	}
	ro := Options{PingInterval: 200 * time.Millisecond}
	if len(ropts) > 0 {
		ro = ropts[0]
	}
	ro.Workers = specs
	f.r = New(ro)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	go f.r.Serve(ln)
	f.addr = ln.Addr().String()
	t.Cleanup(func() {
		f.r.Close()
		for _, srv := range f.workers {
			srv.Close()
		}
	})
	f.waitHealthy(n)
	return f
}

// waitHealthy blocks until n workers are healthy.
func (f *fleet) waitHealthy(n int) {
	f.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		healthy := 0
		for _, w := range f.r.workerSnapshot() {
			if w.isHealthy() {
				healthy++
			}
		}
		if healthy >= n {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("only %d/%d workers healthy", healthy, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wire is a test-side protocol client against the router.
type wire struct {
	t    testing.TB
	conn net.Conn

	mu    sync.Mutex
	id    int64
	resps map[int64]chan serve.Response

	events chan serve.Event
}

func dialWire(t testing.TB, addr string) *wire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	w := &wire{t: t, conn: conn, resps: make(map[int64]chan serve.Response), events: make(chan serve.Event, 1024)}
	go w.readLoop()
	t.Cleanup(func() { conn.Close() })
	return w
}

func (w *wire) readLoop() {
	sc := bufio.NewScanner(w.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Event != "" {
			var ev serve.Event
			if json.Unmarshal(line, &ev) == nil {
				select {
				case w.events <- ev:
				default:
				}
			}
			continue
		}
		var r serve.Response
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		w.mu.Lock()
		ch := w.resps[r.ID]
		delete(w.resps, r.ID)
		w.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
}

func (w *wire) send(req serve.Request) chan serve.Response {
	w.t.Helper()
	w.mu.Lock()
	w.id++
	req.ID = w.id
	ch := make(chan serve.Response, 1)
	w.resps[req.ID] = ch
	w.mu.Unlock()
	b, err := json.Marshal(req)
	if err != nil {
		w.t.Fatalf("marshal: %v", err)
	}
	if _, err := w.conn.Write(append(b, '\n')); err != nil {
		w.t.Fatalf("write: %v", err)
	}
	return ch
}

func (w *wire) roundTrip(req serve.Request) serve.Response {
	w.t.Helper()
	select {
	case r := <-w.send(req):
		return r
	case <-time.After(120 * time.Second):
		w.t.Fatalf("no response to op %q", req.Op)
		return serve.Response{}
	}
}

func (w *wire) waitEvent(kind string) serve.Event {
	w.t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev := <-w.events:
			if ev.Event == kind {
				return ev
			}
		case <-deadline:
			w.t.Fatalf("no %q event", kind)
		}
	}
}

// TestRouterBasics: a client pointed at the router sees the same
// protocol a single worker speaks — new, exec, checkpoints, list,
// kill — plus the fleet op.
func TestRouterBasics(t *testing.T) {
	f := startFleet(t, 2, serve.Options{})
	w := dialWire(t, f.addr)

	if r := w.roundTrip(serve.Request{Op: "ping"}); !r.OK || r.Worker != "dfrouter" {
		t.Fatalf("ping: %+v", r)
	}
	r := w.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	if !strings.HasPrefix(sid, "r") {
		t.Errorf("session id %q not router-minted", sid)
	}
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}); !r.OK {
		t.Fatalf("exec: %s", r.Error)
	}
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "info filters"}); !r.OK || r.Output == "" {
		t.Fatalf("exec info: %+v", r)
	}
	if r := w.roundTrip(serve.Request{Op: "checkpoint", Session: sid, Label: "here"}); !r.OK {
		t.Fatalf("checkpoint: %s", r.Error)
	}
	if r := w.roundTrip(serve.Request{Op: "checkpoints", Session: sid}); !r.OK || len(r.Checkpoints) == 0 {
		t.Fatalf("checkpoints: %+v", r)
	}
	if r := w.roundTrip(serve.Request{Op: "list"}); !r.OK || len(r.Sessions) != 1 {
		t.Fatalf("list: %+v", r)
	}
	if r := w.roundTrip(serve.Request{Op: "fleet"}); !r.OK || len(r.Workers) != 2 {
		t.Fatalf("fleet: %+v", r)
	} else {
		total := 0
		for _, wi := range r.Workers {
			if !wi.Healthy {
				t.Errorf("worker %s unhealthy in fleet view", wi.Name)
			}
			total += wi.Sessions
		}
		if total != 1 {
			t.Errorf("fleet sessions = %d, want 1", total)
		}
	}
	if r := w.roundTrip(serve.Request{Op: "kill", Session: sid}); !r.OK {
		t.Fatalf("kill: %s", r.Error)
	}
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "info filters"}); r.OK {
		t.Fatal("exec on killed session succeeded")
	}
}

// TestRouterPlacementDeterministic: rendezvous placement is a pure
// function of (session id, worker names) — the same id always lands on
// the same worker.
func TestRouterPlacementDeterministic(t *testing.T) {
	f := startFleet(t, 3, serve.Options{})
	for _, id := range []string{"r1", "r2", "alpha", "beta"} {
		ws := f.r.ranked(id, nil)
		if len(ws) != 3 {
			t.Fatalf("ranked(%q): %d workers", id, len(ws))
		}
		for i := 0; i < 10; i++ {
			again := f.r.ranked(id, nil)
			if again[0] != ws[0] {
				t.Fatalf("ranked(%q) unstable: %s vs %s", id, again[0].nameOf(), ws[0].nameOf())
			}
		}
	}
	// Different ids spread across workers (sanity: with 64 ids and 3
	// workers, every worker should own at least one).
	owners := map[string]int{}
	for i := 0; i < 64; i++ {
		owners[f.r.ranked(fmt.Sprintf("r%d", i), nil)[0].nameOf()]++
	}
	if len(owners) != 3 {
		t.Errorf("64 ids landed on %d/3 workers: %v", len(owners), owners)
	}
}

// TestRouterEventFanout: stop events from the worker flow through the
// router to the attached client, and a second attached client sees
// them too.
func TestRouterEventFanout(t *testing.T) {
	f := startFleet(t, 2, serve.Options{})
	a := dialWire(t, f.addr)
	b := dialWire(t, f.addr)

	r := a.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	if r := b.roundTrip(serve.Request{Op: "attach", Session: sid}); !r.OK {
		t.Fatalf("attach: %s", r.Error)
	}
	if r := a.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "filter pipe catch work"}); !r.OK {
		t.Fatalf("catch: %s", r.Error)
	}
	if r := a.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}); !r.OK || r.Stop == nil {
		t.Fatalf("continue: %+v", r)
	}
	for _, w := range []*wire{a, b} {
		ev := w.waitEvent("stop")
		if ev.Session != sid || ev.Stop == nil {
			t.Errorf("stop event: %+v", ev)
		}
	}
}

// TestRouterAdoptsExistingSessions: sessions created directly on a
// worker before the router started are adopted into the routing table
// (the stateless-tier restart story).
func TestRouterAdoptsExistingSessions(t *testing.T) {
	srv := serve.NewServer(serve.Options{Name: "w1", IdleTimeout: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	pre, err := srv.Manager().CreateWithID("r7", serve.SessionParams{W: 16, H: 16, QP: 8, Seed: 7})
	if err != nil {
		t.Fatalf("pre-create: %v", err)
	}
	_ = pre

	r := New(Options{Workers: []string{"w1=" + ln.Addr().String()}, PingInterval: 100 * time.Millisecond})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	go r.Serve(rln)
	t.Cleanup(func() { r.Close() })

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := r.getRoute("r7"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session r7 never adopted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	w := dialWire(t, rln.Addr().String())
	if r := w.roundTrip(serve.Request{Op: "exec", Session: "r7", Line: "info filters"}); !r.OK {
		t.Fatalf("exec adopted session: %s", r.Error)
	}
	// The generator must not re-mint the adopted id.
	if r := w.roundTrip(serve.Request{Op: "new", Params: tinyParams}); !r.OK {
		t.Fatalf("new: %s", r.Error)
	} else if r.Session == "r7" {
		t.Fatal("generator re-minted adopted id r7")
	}
}

// TestRouterWorkerLost: when a worker dies, its sessions are reported
// closed with reason "worker-lost" — not silently dropped.
func TestRouterWorkerLost(t *testing.T) {
	f := startFleet(t, 2, serve.Options{})
	w := dialWire(t, f.addr)
	r := w.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	rt, ok := f.r.getRoute(sid)
	if !ok {
		t.Fatal("no route")
	}
	rt.mu.RLock()
	owner := rt.w
	rt.mu.RUnlock()
	var victim *serve.Server
	for i, srv := range f.workers {
		if f.waddrs[i] == owner.addr {
			victim = srv
		}
	}
	victim.Close()
	ev := w.waitEvent("session-closed")
	if ev.Session != sid || ev.Reason != "worker-lost" {
		t.Errorf("session-closed: %+v", ev)
	}
	if _, ok := f.r.getRoute(sid); ok {
		t.Error("route still present after worker loss")
	}
}
