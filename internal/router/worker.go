package router

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"dfdbg/internal/serve"
)

// jconn is one upstream wire-protocol connection: requests are written
// with connection-local ids and matched to responses; asynchronous
// events go to the onEvent handler. The router keeps one control jconn
// per worker (ping, list, drain — always responsive) and one dedicated
// jconn per routed session, because a worker handles a connection's
// requests in order: a long-running continue on a session's own conn
// can never head-of-line-block another session or a health check.
type jconn struct {
	conn net.Conn

	wmu sync.Mutex // serializes writes

	mu      sync.Mutex
	seq     int64
	pending map[int64]chan serve.Response
	closed  bool
	err     error

	// Events are decoupled from the read loop through an ordered queue:
	// the pump goroutine runs onEvent, so a handler that blocks (a
	// migration holds the route's write lock) can never stall response
	// delivery on the same connection — that would deadlock an export
	// waiting for its own reply. onDown likewise fires on its own
	// goroutine: close() can be reached from a round trip that holds a
	// route read lock.
	onEvent func(serve.Event)
	onDown  func(error)
	evMu    sync.Mutex
	evCond  *sync.Cond
	events  []serve.Event
	down    chan struct{}
}

// dialJConn connects to a worker. The caller wires onEvent/onDown and
// then calls start(); nothing is read before that, so handlers never
// race their own installation.
func dialJConn(addr string, timeout time.Duration) (*jconn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &jconn{
		conn:    conn,
		pending: make(map[int64]chan serve.Response),
		down:    make(chan struct{}),
	}
	c.evCond = sync.NewCond(&c.evMu)
	return c, nil
}

// start launches the read loop and the event pump.
func (c *jconn) start() {
	go c.readLoop()
	go c.pumpEvents()
}

// pumpEvents runs onEvent for queued events, in arrival order.
func (c *jconn) pumpEvents() {
	for {
		c.evMu.Lock()
		for len(c.events) == 0 {
			select {
			case <-c.down:
				c.evMu.Unlock()
				return
			default:
			}
			c.evCond.Wait()
		}
		batch := c.events
		c.events = nil
		c.evMu.Unlock()
		for _, ev := range batch {
			if c.onEvent != nil {
				c.onEvent(ev)
			}
		}
	}
}

func (c *jconn) queueEvent(ev serve.Event) {
	c.evMu.Lock()
	c.events = append(c.events, ev)
	c.evMu.Unlock()
	c.evCond.Signal()
}

func (c *jconn) readLoop() {
	err := serve.ReadLines(c.conn, func(line []byte) {
		var probe struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return
		}
		if probe.Event != "" {
			var ev serve.Event
			if json.Unmarshal(line, &ev) == nil {
				c.queueEvent(ev)
			}
			return
		}
		var resp serve.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	})
	if err == nil {
		err = fmt.Errorf("router: worker connection closed")
	}
	c.close(err)
}

// close tears the connection down, failing every in-flight round trip.
// Idempotent; the first error wins.
func (c *jconn) close(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	c.pending = nil
	close(c.down)
	c.mu.Unlock()
	c.conn.Close()
	c.evMu.Lock()
	c.evCond.Broadcast()
	c.evMu.Unlock()
	if c.onDown != nil {
		go c.onDown(err)
	}
}

// roundTrip sends one request and waits for its response.
func (c *jconn) roundTrip(req serve.Request) (serve.Response, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return serve.Response{}, err
	}
	c.seq++
	req.ID = c.seq
	ch := make(chan serve.Response, 1)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	b, err := json.Marshal(req)
	if err != nil {
		return serve.Response{}, err
	}
	c.wmu.Lock()
	_, err = c.conn.Write(append(b, '\n'))
	c.wmu.Unlock()
	if err != nil {
		c.close(fmt.Errorf("router: worker write: %w", err))
		return serve.Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.down:
		// A response the read loop delivered before the connection went
		// down wins: an export's container must not be dropped because
		// the source closed the connection right after answering.
		select {
		case resp := <-ch:
			return resp, nil
		default:
			return serve.Response{}, c.err
		}
	}
}

// roundTripTimeout is roundTrip with a deadline; on timeout the
// connection is declared dead (a worker that cannot answer a ping is
// not healthy, whatever the cause).
func (c *jconn) roundTripTimeout(req serve.Request, d time.Duration) (serve.Response, error) {
	type result struct {
		resp serve.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := c.roundTrip(req)
		ch <- result{resp, err}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case res := <-ch:
		return res.resp, res.err
	case <-t.C:
		c.close(fmt.Errorf("router: worker unresponsive after %v", d))
		return serve.Response{}, fmt.Errorf("router: worker unresponsive after %v", d)
	}
}

// pingTimeout bounds a health-check round trip. It is floored well
// above the ping cadence: a briefly CPU-starved worker (say, replaying
// migrated-in journals under load) must be slow, not dead — actual
// worker death severs the TCP connection and is detected immediately
// through the read loop regardless of this timeout.
func (w *worker) pingTimeout() time.Duration {
	d := 2 * w.rt.opts.PingInterval
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// worker is the control-plane view of one dfserve worker: a persistent
// control connection with health checks and reconnect, plus the
// draining flag that takes it out of the placement pool.
type worker struct {
	rt   *Router
	addr string

	mu       sync.Mutex
	name     string
	ctl      *jconn
	healthy  bool
	draining bool
	stopped  bool
}

func (w *worker) nameOf() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.name
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// beginDrain flips the worker into draining mode; false if it already
// was (one drain orchestration at a time).
func (w *worker) beginDrain() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		return false
	}
	w.draining = true
	return true
}

func (w *worker) ctlConn() *jconn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctl
}

func (w *worker) shutdown() {
	w.mu.Lock()
	w.stopped = true
	ctl := w.ctl
	w.mu.Unlock()
	if ctl != nil {
		ctl.close(fmt.Errorf("router: closed"))
	}
}

// run is the worker's control loop: dial, identify, adopt the worker's
// live sessions, then ping until the connection dies; reconnect with
// backoff until the router closes.
func (w *worker) run() {
	defer w.rt.wg.Done()
	for {
		select {
		case <-w.rt.done:
			return
		default:
		}
		ctl, err := dialJConn(w.addr, w.rt.opts.DialTimeout)
		if err != nil {
			w.setHealthy(false)
			if !w.sleep(w.rt.opts.PingInterval) {
				return
			}
			continue
		}
		ctl.onEvent = w.handleEvent
		ctl.start()
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			ctl.close(fmt.Errorf("router: closed"))
			return
		}
		w.ctl = ctl
		w.mu.Unlock()

		resp, err := ctl.roundTripTimeout(serve.Request{Op: "ping"}, w.pingTimeout())
		if err == nil && resp.OK {
			if resp.Worker != "" {
				w.mu.Lock()
				w.name = resp.Worker
				w.mu.Unlock()
			}
			w.setHealthy(true)
			w.rt.adoptWorker(w, ctl)
			w.pingLoop(ctl)
		} else {
			ctl.close(fmt.Errorf("router: worker hello failed"))
		}
		w.setHealthy(false)
		if !w.sleep(w.rt.opts.PingInterval) {
			return
		}
	}
}

func (w *worker) setHealthy(ok bool) {
	w.mu.Lock()
	w.healthy = ok
	w.mu.Unlock()
}

// sleep waits d or until the router closes; false means shut down.
func (w *worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.rt.done:
		return false
	case <-t.C:
		return true
	}
}

// pingLoop health-checks the control connection until it dies or the
// router closes.
func (w *worker) pingLoop(ctl *jconn) {
	t := time.NewTicker(w.rt.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-w.rt.done:
			return
		case <-ctl.down:
			return
		case <-t.C:
			if _, err := ctl.roundTripTimeout(serve.Request{Op: "ping"}, w.pingTimeout()); err != nil {
				return
			}
		}
	}
}

// handleEvent reacts to worker-wide events on the control connection.
// A "draining" broadcast (the worker got SIGTERM) triggers the same
// migration orchestration as the admin drain op.
func (w *worker) handleEvent(ev serve.Event) {
	if ev.Event == "draining" {
		go w.rt.DrainWorker(w)
	}
}

// adoptWorker folds a worker's pre-existing sessions into the routing
// table: sessions created before the router started (or across a
// router restart — the tier is stateless) get a dedicated session
// connection and their ids reserved in the generator.
func (r *Router) adoptWorker(w *worker, ctl *jconn) {
	resp, err := ctl.roundTripTimeout(serve.Request{Op: "list"}, w.pingTimeout())
	if err != nil || !resp.OK {
		return
	}
	for _, si := range resp.Sessions {
		if rt, ok := r.getRoute(si.ID); ok {
			rt.mu.RLock()
			live := rt.sc != nil
			rt.mu.RUnlock()
			if live {
				continue
			}
		}
		rt := newRoute(si.ID)
		sc, err := r.dialSession(w, rt)
		if err != nil {
			return
		}
		if resp, err := sc.roundTrip(serve.Request{Op: "attach", Session: si.ID}); err != nil || !resp.OK {
			sc.close(fmt.Errorf("router: adopt attach failed"))
			continue
		}
		rt.mu.Lock()
		rt.w = w
		rt.sc = sc
		rt.mu.Unlock()
		r.installRoute(rt)
	}
}

// dialSession opens the dedicated upstream connection for one session:
// its events flow to the route's subscribers, and its death takes the
// route down (unless a migration already moved it).
func (r *Router) dialSession(w *worker, rt *route) (*jconn, error) {
	c, err := dialJConn(w.addr, r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.onEvent = func(ev serve.Event) { r.routeEvent(rt, ev, c) }
	c.onDown = func(err error) { r.sessionConnDown(rt, c) }
	c.start()
	return c, nil
}

// routeEvent forwards a session's worker-side events to its
// subscribers. The worker's own close notice for a migrated-away
// session is suppressed: the router speaks for the fleet, and the
// fleet-level truth is a single "session-migrated" event. Runs on the
// connection's event pump, so blocking on the route lock here cannot
// stall response delivery.
func (r *Router) routeEvent(rt *route, ev serve.Event, sc *jconn) {
	switch ev.Event {
	case "hello", "goodbye", "dropped", "draining":
		return
	case "session-closed":
		if ev.Reason == "migrated" {
			return
		}
		rt.mu.Lock()
		if rt.sc == sc {
			r.dropRoute(rt, ev.Reason)
		}
		rt.mu.Unlock()
		return
	}
	rt.publish(ev)
}

// sessionConnDown handles a session connection dying out from under its
// route: if the route still points at this connection the session is
// gone with its worker (a migration or kill swaps sc first and is not
// affected).
func (r *Router) sessionConnDown(rt *route, sc *jconn) {
	if r.isClosed() {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sc != sc || sc == nil {
		return
	}
	r.sessionsLost.Inc()
	r.dropRoute(rt, "worker-lost")
}
