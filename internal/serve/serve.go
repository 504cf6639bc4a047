package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/internal/obs"
)

// Options configures a Server. Zero values take the listed defaults.
type Options struct {
	Name          string        // worker fleet name; prefixes generated session ids ("" = standalone)
	MaxSessions   int           // concurrent sessions admitted (default 32)
	MaxConns      int           // concurrent client connections (default 64)
	IdleTimeout   time.Duration // reap sessions idle this long (default 5m, <0 disables)
	EventQueueLen int           // per-client async event queue (default 256)

	// Session supervision (DESIGN §13).
	CheckpointEvery    int           // auto-checkpoint every N state-mutating commands (default 8, <0 disables)
	CheckpointInterval time.Duration // auto-checkpoint after this much wall time (default 30s, <0 disables)
	RestartLimit       int           // crash recoveries per session before crash-loop close (default 3, <0 disables)
}

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 32
	}
	if o.MaxConns == 0 {
		o.MaxConns = 64
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.IdleTimeout < 0 {
		o.IdleTimeout = 0
	}
	if o.EventQueueLen == 0 {
		o.EventQueueLen = 256
	}
	return o
}

// Server accepts wire-protocol connections and routes their requests to
// the session manager. Graceful degradation is built in: a connection
// over the limit is greeted with a goodbye event and closed, sessions
// over the limit are refused with an error response, idle sessions are
// reaped, and slow readers lose oldest events first — never responses.
type Server struct {
	opts Options
	mgr  *Manager

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	clients  map[*client]struct{}
	stopReap chan struct{}
	wg       sync.WaitGroup

	connsActive atomic.Int64
	connsTotal  *obs.Counter
	connsOver   *obs.Counter
}

// NewServer returns a server with a fresh session manager.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		mgr:      NewManager(opts.MaxSessions, opts.IdleTimeout),
		clients:  make(map[*client]struct{}),
		stopReap: make(chan struct{}),
	}
	s.mgr.SetName(opts.Name)
	s.mgr.SetCheckpointPolicy(opts.CheckpointEvery, opts.CheckpointInterval, opts.RestartLimit)
	reg := s.mgr.Registry()
	reg.GaugeFunc("conns_active", "client connections currently open",
		func() float64 { return float64(s.connsActive.Load()) })
	s.connsTotal = reg.Counter("conns_total", "client connections ever accepted")
	s.connsOver = reg.Counter("conns_refused_total", "connections refused over the limit")
	return s
}

// Manager returns the server's session manager (metrics, direct
// session access for embedders and tests).
func (s *Server) Manager() *Manager { return s.mgr }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Close. It owns the idle-reaper
// goroutine for the lifetime of the listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()

	if s.mgr.IdleTimeout() > 0 {
		tick := s.mgr.IdleTimeout() / 4
		if tick > time.Second {
			tick = time.Second
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-s.stopReap:
					return
				case <-t.C:
					s.mgr.ReapIdle()
				}
			}
		}()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connsTotal.Inc()
		if n := s.connsActive.Add(1); int(n) > s.opts.MaxConns {
			s.connsActive.Add(-1)
			s.connsOver.Inc()
			b, _ := json.Marshal(Event{Event: "goodbye", Reason: "connection limit reached"})
			conn.Write(append(b, '\n'))
			conn.Close()
			continue
		}
		cl := newClient(s, conn)
		s.mu.Lock()
		s.clients[cl] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			cl.Serve("dfserve/1", cl.handle, cl.detachAll)
			s.mu.Lock()
			delete(s.clients, cl)
			s.mu.Unlock()
			s.connsActive.Add(-1)
		}()
	}
}

// StartDrain begins a graceful drain (SIGTERM, or the "drain" wire
// op): session admission stops and every connected client — the
// routing tier above all — is told via a "draining" event that this
// worker wants its sessions migrated away.
func (s *Server) StartDrain() {
	s.mgr.StartDrain()
	s.Broadcast(Event{Event: "draining", Reason: s.mgr.Name()})
}

// Broadcast queues an event on every connected client (worker-wide
// notices like "draining"; per-session events go through the session's
// subscriber fan-out instead).
func (s *Server) Broadcast(ev Event) {
	s.mu.Lock()
	clients := make([]*client, 0, len(s.clients))
	for cl := range s.clients {
		clients = append(clients, cl)
	}
	s.mu.Unlock()
	for _, cl := range clients {
		cl.deliver(ev)
	}
}

// Close stops accepting, tears down every session and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	clients := make([]*client, 0, len(s.clients))
	for cl := range s.clients {
		clients = append(clients, cl)
	}
	close(s.stopReap)
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Sever live connections: a closed server must look dead to its
	// clients (the router's health checks included), not half-alive.
	for _, cl := range clients {
		cl.Close()
	}
	s.mgr.CloseAll()
	s.wg.Wait()
	return nil
}

// client is one dfserve connection: the shared wire layer plus the
// sessions this connection is attached to.
type client struct {
	*Conn
	srv      *Server
	attached map[string]*Session
}

func newClient(s *Server, conn net.Conn) *client {
	return &client{
		Conn:     NewConn(conn, s.opts.EventQueueLen, s.mgr.eventsDropped),
		srv:      s,
		attached: make(map[string]*Session),
	}
}

// deliver makes the client a session subscriber.
func (cl *client) deliver(ev Event) { cl.Deliver(ev) }

// detachAll unsubscribes from every attached session (connection end).
func (cl *client) detachAll() {
	for _, s := range cl.attached {
		s.Unsubscribe(cl)
	}
	cl.attached = nil
}

// handle executes one request. Requests on a connection run in order;
// a long-running exec (continue) blocks later requests on the same
// connection, not other clients.
func (cl *client) handle(req Request) {
	resp := Response{ID: req.ID, Session: req.Session}
	if err := cl.run(req, &resp); err != nil {
		resp.Error = err.Error()
	}
	cl.Respond(resp)
}

// run executes req into resp; an error becomes the response's error.
func (cl *client) run(req Request, resp *Response) error {
	mgr := cl.srv.mgr
	switch req.Op {
	case "ping":
		resp.OK, resp.Worker = true, mgr.Name()
		return nil
	case "new", "import":
		var p SessionParams
		if req.Params != nil {
			p = *req.Params
		}
		// A request-supplied session id pins the id (the router assigns
		// fleet-unique ids up front so rendezvous placement can be
		// computed from the id alone); empty generates one on "new".
		var s *Session
		var err error
		if req.Op == "new" {
			s, err = mgr.CreateWithID(req.Session, p)
		} else {
			s, err = mgr.Import(req.Session, p, req.Container)
		}
		if err != nil {
			return err
		}
		// The creator is attached: it sees its session's events without
		// a separate attach round-trip.
		if err := cl.attach(s); err != nil {
			return err
		}
		resp.OK, resp.Session = true, s.ID
		return nil
	case "drain":
		cl.srv.StartDrain()
		resp.OK, resp.Worker, resp.Sessions = true, mgr.Name(), mgr.List()
		return nil
	case "detach":
		if s, ok := cl.attached[req.Session]; ok {
			s.Unsubscribe(cl)
			delete(cl.attached, req.Session)
		}
		resp.OK = true
		return nil
	case "list":
		resp.OK, resp.Sessions = true, mgr.List()
		return nil
	case "metrics":
		if req.Session == "" {
			resp.OK, resp.Metrics = true, mgr.Registry().Snapshot()
			return nil
		}
	case "attach", "export", "exec", "checkpoint", "restore", "checkpoints", "complete", "kill":
	default:
		return fmt.Errorf("serve: unknown op %q", req.Op)
	}

	// The session-scoped ops.
	s, err := mgr.Get(req.Session)
	if err != nil {
		return err
	}
	switch req.Op {
	case "attach":
		if err := cl.attach(s); err != nil {
			return err
		}
	case "export":
		params, container, err := s.Export()
		if err != nil {
			return err
		}
		delete(cl.attached, req.Session)
		resp.Params, resp.Container = &params, container
	case "exec":
		return execInto(s, req.Line, resp)
	case "checkpoint":
		return execInto(s, cmdLine("checkpoint", req.Label), resp)
	case "restore":
		return execInto(s, cmdLine("restore", req.Line), resp)
	case "checkpoints":
		if resp.Checkpoints, err = s.Checkpoints(); err != nil {
			return err
		}
	case "complete":
		if resp.Completions, err = s.Complete(req.Line); err != nil {
			return err
		}
	case "kill":
		s.Close("killed")
		delete(cl.attached, req.Session)
	case "metrics":
		if resp.Metrics, err = s.Metrics(); err != nil {
			return err
		}
	}
	resp.OK = true
	return nil
}

// execInto runs one command line on s and renders the result into resp.
func execInto(s *Session, line string, resp *Response) error {
	res, err := s.Exec(line)
	if err != nil {
		return err
	}
	resp.OK = res.Err == nil
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	resp.Output = res.Output
	resp.Stop = res.Stop
	resp.Done = res.Quit
	return nil
}

// cmdLine joins a command verb and its optional argument.
func cmdLine(verb, arg string) string {
	if arg == "" {
		return verb
	}
	return verb + " " + arg
}

// attach subscribes the client to s. A session past serving refuses
// with ErrSessionClosed.
func (cl *client) attach(s *Session) error {
	if _, ok := cl.attached[s.ID]; ok {
		return nil
	}
	if err := s.Subscribe(cl); err != nil {
		return err
	}
	cl.attached[s.ID] = s
	return nil
}
