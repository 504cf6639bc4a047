package router

import (
	"fmt"
	"net"
	"sort"
	"strings"

	"dfdbg/internal/serve"
)

// rclient is one downstream client connection: serve's wire layer
// (requests in order, responses never dropped, drop-oldest events) plus
// the routes this connection is attached to.
type rclient struct {
	*serve.Conn
	rt       *Router
	attached map[string]*route
}

func newRClient(r *Router, conn net.Conn) *rclient {
	return &rclient{
		Conn:     serve.NewConn(conn, r.opts.EventQueueLen, r.eventsDropped),
		rt:       r,
		attached: make(map[string]*route),
	}
}

// detachAll unsubscribes from every attached route (connection end).
func (cl *rclient) detachAll() {
	for _, rt := range cl.attached {
		rt.unsubscribe(cl)
	}
	cl.attached = nil
}

// attach subscribes the client to a route's events.
func (cl *rclient) attach(rt *route) {
	if _, ok := cl.attached[rt.id]; ok {
		return
	}
	cl.attached[rt.id] = rt
	rt.subscribe(cl)
}

// handle executes one request against the fleet.
func (cl *rclient) handle(req serve.Request) {
	resp, err := cl.run(req)
	if err != nil {
		resp = serve.Response{ID: req.ID, Session: req.Session, Error: err.Error()}
	}
	cl.Respond(resp)
}

// run executes req; an error becomes the response's error.
func (cl *rclient) run(req serve.Request) (serve.Response, error) {
	resp := serve.Response{ID: req.ID, Session: req.Session, OK: true}
	switch req.Op {
	case "ping":
		resp.Worker = "dfrouter"
	case "new":
		return cl.handleNew(req)
	case "attach":
		rt, ok := cl.rt.getRoute(req.Session)
		if !ok {
			return resp, fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session)
		}
		// Attach is router-local: the router's per-session worker
		// connection is already subscribed upstream, so attaching during
		// a migration needs no worker round trip and cannot race the
		// route flip.
		cl.attach(rt)
	case "detach":
		if rt, ok := cl.attached[req.Session]; ok {
			rt.unsubscribe(cl)
			delete(cl.attached, req.Session)
		}
	case "list":
		resp.Sessions = cl.rt.listFleet()
	case "fleet":
		resp.Workers = cl.rt.fleet()
	case "drain":
		w := cl.rt.workerByName(req.Worker)
		if w == nil {
			return resp, fmt.Errorf("router: no worker %q", req.Worker)
		}
		moved := cl.rt.DrainWorker(w)
		resp.Worker = w.nameOf()
		for _, id := range moved {
			resp.Sessions = append(resp.Sessions, serve.SessionInfo{ID: id})
		}
	case "metrics":
		if req.Session != "" {
			return cl.forward(req)
		}
		resp.Metrics = cl.rt.reg.Snapshot()
	case "exec", "complete", "checkpoint", "restore", "checkpoints", "kill", "export", "import":
		return cl.forward(req)
	default:
		return resp, fmt.Errorf("router: unknown op %q", req.Op)
	}
	return resp, nil
}

// handleNew places a session: the router mints the fleet-unique id,
// ranks the eligible workers by rendezvous score and creates the
// session on the best one that will take it.
func (cl *rclient) handleNew(req serve.Request) (serve.Response, error) {
	id := req.Session
	if id == "" {
		id = cl.rt.nextID()
	} else if rt, ok := cl.rt.getRoute(id); ok && rt != nil {
		return serve.Response{}, fmt.Errorf("%w: %q", serve.ErrDuplicateID, id)
	}
	lastErr := fmt.Errorf("router: no healthy worker")
	for _, w := range cl.rt.ranked(id, nil) {
		rt := newRoute(id)
		sc, err := cl.rt.dialSession(w, rt)
		if err != nil {
			lastErr = err
			continue
		}
		up := serve.Request{Op: "new", Session: id, Params: req.Params}
		r2, err := sc.roundTrip(up)
		if err != nil {
			lastErr = err
			continue
		}
		if !r2.OK {
			sc.close(fmt.Errorf("router: new refused"))
			lastErr = fmt.Errorf("%s", r2.Error)
			if strings.Contains(r2.Error, "already in use") {
				// A duplicate pinned id must not fall through to another
				// worker — that would fork the session.
				break
			}
			continue
		}
		rt.mu.Lock()
		rt.w = w
		rt.sc = sc
		rt.mu.Unlock()
		cl.rt.installRoute(rt)
		cl.attach(rt)
		cl.rt.sessionsRouted.Inc()
		return serve.Response{ID: req.ID, OK: true, Session: id}, nil
	}
	return serve.Response{}, lastErr
}

// forward proxies one session-scoped request to the owning worker. The
// route's read lock is held across the round trip, so a concurrent
// migration waits for this command and the next one lands on the new
// worker.
func (cl *rclient) forward(req serve.Request) (serve.Response, error) {
	rt, ok := cl.rt.getRoute(req.Session)
	if !ok {
		return serve.Response{}, fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session)
	}
	rt.mu.RLock()
	sc := rt.sc
	if sc == nil {
		rt.mu.RUnlock()
		return serve.Response{}, fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session)
	}
	cl.rt.commandsTotal.Inc()
	resp, err := sc.roundTrip(req)
	rt.mu.RUnlock()
	if err != nil {
		return serve.Response{}, fmt.Errorf("router: session %s: worker lost: %v", req.Session, err)
	}
	resp.ID = req.ID
	if resp.Session == "" {
		resp.Session = req.Session
	}
	// A session that ended upstream — quit, kill, or an export a client
	// issued directly — leaves the table before the client hears of it;
	// the worker-side close event tells the subscribers why.
	if resp.Done || (resp.OK && (req.Op == "kill" || req.Op == "export")) {
		rt.mu.Lock()
		if rt.sc == sc {
			cl.rt.dropRoute(rt, "")
		}
		rt.mu.Unlock()
	}
	return resp, nil
}

// listFleet merges every healthy worker's session list (each session
// lives on exactly one worker).
func (r *Router) listFleet() []serve.SessionInfo {
	var out []serve.SessionInfo
	for _, w := range r.workerSnapshot() {
		ctl := w.ctlConn()
		if ctl == nil || !w.isHealthy() {
			continue
		}
		resp, err := ctl.roundTrip(serve.Request{Op: "list"})
		if err != nil || !resp.OK {
			continue
		}
		out = append(out, resp.Sessions...)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
