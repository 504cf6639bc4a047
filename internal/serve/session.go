package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
	"dfdbg/internal/web"
	"dfdbg/internal/world"
)

// Errors returned by the session layer and rendered onto the wire.
var (
	ErrSessionLimit  = errors.New("serve: session limit reached")
	ErrSessionClosed = errors.New("serve: session closed")
	ErrNoSession     = errors.New("serve: no such session")
	ErrDraining      = errors.New("serve: worker draining")
	ErrDuplicateID   = errors.New("serve: session id already in use")
)

// subscriber receives a session's asynchronous events. Implementations
// must not block: the client layer queues with drop-oldest semantics.
type subscriber interface {
	deliver(Event)
}

// Manager hosts the concurrent debug sessions behind one server:
// creation against a session limit, lookup, listing, kill, and idle
// reaping. Each session's kernel is owned by that session's goroutine;
// the manager never touches simulation state.
type Manager struct {
	maxSessions int
	idleTimeout time.Duration

	// session supervision policy (SetCheckpointPolicy)
	ckptEvery    int
	ckptInterval time.Duration
	restartLimit int

	// name is the worker's fleet name (SetName); non-empty names prefix
	// generated session ids so two workers never mint the same id.
	name     string
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int

	reg               *obs.Registry
	sessionsOpened    *obs.Counter
	sessionsReaped    *obs.Counter
	sessionsRecovered *obs.Counter
	commandsTotal     *obs.Counter
	eventsDropped     *obs.Counter
	checkpointBytes   *obs.Gauge
}

// NewManager returns a manager admitting up to maxSessions concurrent
// sessions and reaping sessions idle for longer than idleTimeout
// (0 disables reaping). Its metrics registry carries the server-level
// gauges and counters.
func NewManager(maxSessions int, idleTimeout time.Duration) *Manager {
	m := &Manager{
		maxSessions: maxSessions,
		idleTimeout: idleTimeout,
		sessions:    make(map[string]*Session),
		reg:         obs.NewRegistry(),
	}
	m.reg.GaugeFunc("sessions_active", "debug sessions currently hosted",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sessions))
		})
	m.sessionsOpened = m.reg.Counter("sessions_opened_total", "debug sessions ever created")
	m.sessionsReaped = m.reg.Counter("sessions_reaped_total", "sessions closed by the idle reaper")
	m.sessionsRecovered = m.reg.Counter("sessions_recovered_total", "sessions auto-restored from a checkpoint after a crash")
	m.commandsTotal = m.reg.Counter("commands_total", "debugger commands dispatched across all sessions")
	m.eventsDropped = m.reg.Counter("events_dropped_total", "events lost to per-client backpressure")
	m.checkpointBytes = m.reg.Gauge("checkpoint_bytes", "size of the most recently captured checkpoint state blob")
	m.reg.GaugeFunc("filterc_programs_interned", "distinct filter programs parsed in this process",
		func() float64 { return float64(filterc.InternedPrograms()) })
	m.reg.GaugeFunc("analysis_class_memo_entries", "memoized actor classifications in this process",
		func() float64 { return float64(pedfgraph.ClassMemoEntries()) })
	m.ckptEvery = defaultCkptEvery
	m.ckptInterval = defaultCkptInterval
	m.restartLimit = defaultRestartLimit
	return m
}

// SetCheckpointPolicy configures session supervision: auto-checkpoint
// every `every` journaled commands (<0 disables), auto-checkpoint when
// `interval` wall time passed since the last one (<0 disables), and
// allow up to restartLimit crash recoveries per session (<0 allows
// none). Zero values keep the defaults. Call before creating sessions.
func (m *Manager) SetCheckpointPolicy(every int, interval time.Duration, restartLimit int) {
	switch {
	case every < 0:
		m.ckptEvery = 0
	case every > 0:
		m.ckptEvery = every
	}
	switch {
	case interval < 0:
		m.ckptInterval = 0
	case interval > 0:
		m.ckptInterval = interval
	}
	switch {
	case restartLimit < 0:
		m.restartLimit = 0
	case restartLimit > 0:
		m.restartLimit = restartLimit
	}
}

// Registry returns the server-level metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// IdleTimeout returns the configured idle-session timeout.
func (m *Manager) IdleTimeout() time.Duration { return m.idleTimeout }

// SetName records the worker's fleet name. Generated session ids are
// prefixed "name-" so ids stay globally unique across a fleet even for
// sessions created directly against one worker. Call before creating
// sessions.
func (m *Manager) SetName(name string) { m.name = name }

// Name returns the worker's fleet name ("" outside a fleet).
func (m *Manager) Name() string { return m.name }

// StartDrain puts the manager into draining mode: new sessions —
// created, imported, or migrated in — are refused with ErrDraining.
// Existing sessions keep serving until they are exported or closed.
func (m *Manager) StartDrain() { m.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Create builds a new session for params and starts its goroutine. It
// returns once the session booted (graph reconstructed, first prompt
// reachable) or failed to.
func (m *Manager) Create(params SessionParams) (*Session, error) {
	return m.CreateWithID("", params)
}

// CreateWithID builds a new session under an explicit id (the router
// assigns fleet-unique ids so placement can be computed from the id
// alone). An empty id generates one; a taken id fails with
// ErrDuplicateID.
func (m *Manager) CreateWithID(id string, params SessionParams) (*Session, error) {
	return m.newSession(id, params.withDefaults(), nil)
}

// Import revives a migrated session from its DFCK container under its
// original id: the world is rebuilt from params, the container's
// journal is replayed, and the replayed state is byte-compared against
// the container's state blob (a restore that cannot prove equivalence
// fails with a DivergenceError instead of resuming a different world).
// The adopted container becomes the session's recovery floor.
func (m *Manager) Import(id string, params SessionParams, container []byte) (*Session, error) {
	cp, err := ckpt.Decode(container)
	if err != nil {
		return nil, fmt.Errorf("serve: import: %w", err)
	}
	if id == "" {
		return nil, fmt.Errorf("serve: import needs the session's id")
	}
	return m.newSession(id, params.withDefaults(), cp)
}

// newSession admits and boots one session (fresh or imported).
func (m *Manager) newSession(id string, params SessionParams, boot *ckpt.Checkpoint) (*Session, error) {
	s, err := m.admit(id, params, boot)
	if err != nil {
		return nil, err
	}
	if err := m.start(s); err != nil {
		return nil, err
	}
	return s, nil
}

// admit reserves a table slot and an id for a session still booting.
func (m *Manager) admit(id string, params SessionParams, boot *ckpt.Checkpoint) (*Session, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		return nil, fmt.Errorf("%w (%d active)", ErrSessionLimit, len(m.sessions))
	}
	if id == "" {
		m.seq++
		id = fmt.Sprintf("s%d", m.seq)
		if m.name != "" {
			id = m.name + "-" + id
		}
	} else if _, taken := m.sessions[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	s := &Session{
		ID:     id,
		Params: params,
		mgr:    m,
		bootCP: boot,
		cmds:   make(chan sessionCmd),
		stop:   make(chan string),
		done:   make(chan struct{}),
		subs:   make(map[subscriber]struct{}),
	}
	m.sessions[s.ID] = s
	return s, nil
}

// start runs an admitted session's goroutine and waits until it booted
// (graph reconstructed, first prompt reachable) or failed to.
func (m *Manager) start(s *Session) error {
	ready := make(chan error)
	go s.loop(ready)
	if err := <-ready; err != nil {
		m.remove(s)
		return err
	}
	m.sessionsOpened.Inc()
	return nil
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return s, nil
}

// List returns a snapshot of every hosted session, sorted by id.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ReapIdle closes sessions that have been idle (no command executed,
// none waiting) for longer than the idle timeout. It returns how many
// were reaped. The server calls this periodically; tests call it
// directly.
//
// The lastUsed atomic is only a cheap pre-filter. The verdict is a
// probe taken on the session goroutine at a command boundary, where the
// previous command's journal entry and auto-checkpoint are settled. The
// probe yields — the session keeps serving — if a client command ran
// after the pre-filter looked or is waiting to run. A probe queues
// behind a command in flight, so the pass lasts until every probed
// session reached a boundary.
func (m *Manager) ReapIdle() int {
	if m.idleTimeout <= 0 {
		return 0
	}
	m.mu.Lock()
	seen := make(map[*Session]int64)
	for _, s := range m.sessions {
		if used := s.lastUsed.Load(); time.Since(time.Unix(0, used)) > m.idleTimeout {
			seen[s] = used
		}
	}
	m.mu.Unlock()
	var n atomic.Int64
	var wg sync.WaitGroup
	for s, used := range seen {
		wg.Add(1)
		go func(s *Session, used int64) {
			defer wg.Done()
			if s.tryReap(used) {
				n.Add(1)
				m.sessionsReaped.Inc()
			}
		}(s, used)
	}
	wg.Wait()
	return int(n.Load())
}

// CloseAll tears down every session (server shutdown).
func (m *Manager) CloseAll() {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.Close("server-shutdown")
	}
}

// remove deletes s from the table (idempotent). It leaves alone a newer
// session that took over the id after s was retired.
func (m *Manager) remove(s *Session) {
	m.mu.Lock()
	if m.sessions[s.ID] == s {
		delete(m.sessions, s.ID)
	}
	m.mu.Unlock()
}

// sessionCmd is one unit of work executed on the session goroutine. The
// closure receives the session's live world, so every kernel access
// happens on the goroutine that owns it. line carries the debugger
// command line for exec commands ("" for internal queries) — the
// binding journals it on success and the supervisor re-executes it
// after crash recovery. probe marks the idle reaper's probe, which is
// not a client command.
type sessionCmd struct {
	line  string
	run   func(*world.World) any
	reply chan any
	probe bool
}

// Session is one hosted debug session: a kernel, runtime and command
// dispatcher owned by a single goroutine, plus the bookkeeping the
// manager and the protocol layer read from outside.
type Session struct {
	ID     string
	Params SessionParams

	mgr  *Manager
	cmds chan sessionCmd
	stop chan string   // Close hands its reason to the loop here
	done chan struct{} // closed by loop on exit

	// bootCP is the migrated-in container an imported session restores
	// from instead of booting fresh. sup is the session's supervisor —
	// set by loop before the first command and only ever touched on the
	// session goroutine.
	bootCP *ckpt.Checkpoint
	sup    *supervisor

	busy     atomic.Bool
	lastUsed atomic.Int64 // wall nanos of the last client command
	ncmds    atomic.Uint64
	waiting  atomic.Int32 // client commands sent to cmds and not yet taken

	// subMu guards the subscriber set and the lifecycle phase together,
	// so a subscriber either joins before the session retires (and hears
	// session-closed) or is refused. reason is the close reason, written
	// once by retire.
	subMu  sync.Mutex
	subs   map[subscriber]struct{}
	phase  phase
	reason string

	// kPtr/recPtr expose the session's kernel and recorder to the web
	// layer's lock-free paths (stall snapshots, the live event tap).
	// They are set by loop once the world booted and cleared on
	// teardown; everything else still goes through do().
	kPtr   atomic.Pointer[sim.Kernel]
	recPtr atomic.Pointer[obs.Recorder]

	webMu sync.Mutex
	webBC *web.Broadcaster
}

// phase is a session's place in its lifecycle. It only moves forward:
//
//	booting → serving → retiring → closed
//	booting → closed (the boot failed)
//
// retire is the only way out of serving (DESIGN §8, "Session
// ownership", has the transition table).
type phase int

const (
	booting phase = iota
	serving
	retiring
	closed
)

func (s *Session) setPhase(p phase) {
	s.subMu.Lock()
	s.phase = p
	s.subMu.Unlock()
}

// loop is the session goroutine: it builds the world (so the kernel is
// born and dies on this goroutine) and serializes every command against
// it. Kernels never share state across sessions. The cross-session
// paths are the process-wide, read-only-after-insert tables — filterc's
// program intern table and compiled-code cache, and pedfgraph's
// classification memo — plus the manager's atomic counters.
func (s *Session) loop(ready chan<- error) {
	defer close(s.done)
	s.sup = newSupervisor(s)
	err := s.sup.open(s.Params, s.bootCP)
	ready <- err
	if err != nil {
		s.setPhase(closed)
		return
	}
	s.rebind(s.sup.b.Cur)
	s.touch()
	s.setPhase(serving)
	var reason string
	var last func()
	for reason == "" {
		select {
		case reason = <-s.stop:
		case cmd := <-s.cmds:
			if !cmd.probe {
				s.waiting.Add(-1)
			}
			reason, last = s.step(cmd)
		}
	}
	s.retire(reason, last)
}

// step runs one command on the session goroutine and settles its
// effects: journal, stop event, checkpoint swap, crash recovery. If the
// command ends the session, it returns the close reason. A reply that
// retires the session (a successful export, a reap verdict, quit) comes
// back unsent as last, for retire to send once the session has left the
// manager.
func (s *Session) step(cmd sessionCmd) (string, func()) {
	b := s.sup.b
	s.busy.Store(true)
	out := runShielded(cmd, b.Cur)
	s.busy.Store(false)
	reply := func() { cmd.reply <- out }
	var reason string
	switch v := out.(type) {
	case reapVerdict:
		// A probe is not use: it leaves the idle clock alone.
		if v.reap {
			return "idle-timeout", reply
		}
		reply()
		s.sup.maybeAuto()
		return "", nil
	case exportReply:
		if v.err == nil {
			// The state left for a peer: this copy dies so at most one
			// live instance of the session ever exists.
			reason = "migrated"
		}
	case cli.Result:
		s.ncmds.Add(1)
		s.mgr.commandsTotal.Inc()
		b.Note(cmd.line, v)
		if v.Quit {
			reason = "quit"
		}
	}
	s.touch()
	if reason != "" {
		return reason, reply
	}
	reply()

	var crash string
	switch v := out.(type) {
	case cli.Result:
		if v.Stop != nil {
			s.publish(Event{Event: "stop", Session: s.ID, Stop: v.Stop})
		}
		if b.Adopt(s.rebind) {
			// A checkpoint command (restore, reverse-step,
			// reverse-continue) staged a rebuilt world: it is live now.
			s.publish(Event{Event: "restored", Session: s.ID})
		} else if v.Stop != nil && v.Stop.Crash != nil {
			// A contained crash (induced `fault panic`) killed the
			// world: restore, disarm, re-execute.
			crash = "crash: " + v.Stop.Crash.Cause
		}
	case panicReply:
		// A genuine Go panic unwound the command closure; the old world
		// may be wedged.
		crash = v.err.Error()
	}
	if crash != "" && !s.sup.recoverFrom(cmd.line, crash) {
		return "crash-loop", nil
	}
	s.sup.maybeAuto()
	return "", nil
}

// rebind points the session's lock-free surfaces at w, the world about
// to go live: live web streams are closed (clients reattach against the
// new world) and the kernel and recorder pointers flip. Runs on the
// session goroutine, before the old world is torn down.
func (s *Session) rebind(w *world.World) {
	// Detach before flipping recPtr: the broadcaster's attach closure
	// resolves the recorder through recPtr, so this clears the tap on
	// the old recorder.
	s.webMu.Lock()
	if s.webBC != nil {
		s.webBC.Detach()
		s.webBC = nil
	}
	s.webMu.Unlock()
	s.kPtr.Store(w.K)
	s.recPtr.Store(w.Rec)
}

// retire is the session's one way out of serving, run once on the
// session goroutine with the first close reason. In order, it: enters
// retiring (Subscribe and the web broadcaster now refuse), leaves the
// manager, sends the retiring reply if there is one (so a caller that
// sees it never finds the session listed), closes the web fan-out and
// the lock-free pointers, unwinds the kernel, publishes session-closed
// to the subscribers that joined before, and drops them.
func (s *Session) retire(reason string, reply func()) {
	s.subMu.Lock()
	s.phase, s.reason = retiring, reason
	s.subMu.Unlock()
	s.mgr.remove(s)
	if reply != nil {
		reply()
	}
	s.webMu.Lock()
	if s.webBC != nil {
		s.webBC.Detach()
	}
	s.webMu.Unlock()
	s.kPtr.Store(nil)
	s.recPtr.Store(nil)
	s.sup.b.Cur.Shutdown()
	s.publish(Event{Event: "session-closed", Session: s.ID, Reason: reason})
	s.subMu.Lock()
	s.subs, s.phase = nil, closed
	s.subMu.Unlock()
}

// Close retires the session with reason (unless it already retired for
// another) and waits until its goroutine exited (kernel fully unwound).
// Safe to call from any goroutine, idempotent. If a command is
// executing, the session retires after it completes.
func (s *Session) Close(reason string) {
	if reason == "" {
		reason = "closed"
	}
	select {
	case s.stop <- reason:
	case <-s.done:
	}
	<-s.done
}

// exportReply carries a migration container out of the session
// goroutine. On success the session retires with reason "migrated", so
// the exported container is the session's final word.
type exportReply struct {
	params    SessionParams
	container []byte
	err       error
}

// reapVerdict is the idle reaper's on-goroutine decision.
type reapVerdict struct{ reap bool }

// Export captures the session into a migration container — the full
// command journal since birth plus the current state blob, sealed in
// DFCK container form — and closes the session with reason "migrated".
// It runs at a command boundary on the session goroutine, so an
// in-flight command finishes (and is journaled) before the capture.
func (s *Session) Export() (SessionParams, []byte, error) {
	out, err := s.doCmd("", func(w *world.World) any {
		cp, err := s.sup.b.Mgr.Capture(w, "migrate", uint64(w.K.Now()), time.Now().UnixNano())
		if err != nil {
			return exportReply{err: fmt.Errorf("serve: export: %w", err)}
		}
		return exportReply{params: s.Params, container: cp.Encode()}
	})
	if err != nil {
		return SessionParams{}, nil, err
	}
	rep := out.(exportReply)
	return rep.params, rep.container, rep.err
}

// tryReap asks the session goroutine to retire the session if it is
// still idle: no client command finished since lastUsed read seen, and
// none is waiting to run. The probe queues behind a command in flight.
func (s *Session) tryReap(seen int64) bool {
	cmd := sessionCmd{
		run: func(*world.World) any {
			return reapVerdict{reap: s.lastUsed.Load() == seen && s.waiting.Load() == 0}
		},
		reply: make(chan any, 1),
		probe: true,
	}
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return false
	}
	out, _ := s.awaitReply(cmd.reply)
	v, _ := out.(reapVerdict)
	return v.reap
}

// awaitReply waits for a command's reply. A reply that was sent wins
// over the session's exit: the loop sends the reply before it tears
// down and closes done, so when both are ready the buffered reply is
// still there to be read. ok is false only if the session exited
// without replying.
func (s *Session) awaitReply(reply chan any) (out any, ok bool) {
	select {
	case out = <-reply:
		return out, true
	case <-s.done:
		select {
		case out = <-reply:
			return out, true
		default:
			return nil, false
		}
	}
}

// Exec dispatches one debugger command line on the session goroutine
// and returns its structured result.
func (s *Session) Exec(line string) (cli.Result, error) {
	return call(s, line, func(w *world.World) cli.Result { return w.CLI.Dispatch(line) })
}

// Checkpoints lists the session's retained checkpoints, oldest first.
func (s *Session) Checkpoints() ([]ckpt.Info, error) {
	return call(s, "", func(*world.World) []ckpt.Info { return s.sup.b.Mgr.List() })
}

// Complete returns command-line completions for a partial line.
func (s *Session) Complete(partial string) ([]string, error) {
	return call(s, "", func(w *world.World) []string { return w.CLI.CompleteLine(partial) })
}

// Metrics snapshots the session's own observability registry (the
// per-session kernel/runtime/debugger metrics, not the server's).
func (s *Session) Metrics() ([]obs.MetricValue, error) {
	return call(s, "", func(w *world.World) []obs.MetricValue { return w.Rec.Metrics.Snapshot() })
}

// call is doCmd with a typed result.
func call[T any](s *Session, line string, fn func(*world.World) T) (T, error) {
	out, err := s.doCmd(line, func(w *world.World) any { return fn(w) })
	if err != nil {
		var zero T
		return zero, err
	}
	return out.(T), nil
}

// do runs fn on the session goroutine.
func (s *Session) do(fn func(*world.World) any) (any, error) { return s.doCmd("", fn) }

// doCmd runs fn on the session goroutine, tagged with the command line
// it executes (for the supervisor's journal). A panic inside fn comes
// back as an error, not a dead session.
func (s *Session) doCmd(line string, fn func(*world.World) any) (any, error) {
	cmd := sessionCmd{line: line, run: fn, reply: make(chan any, 1)}
	s.waiting.Add(1)
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return nil, ErrSessionClosed
	}
	out, ok := s.awaitReply(cmd.reply)
	if !ok {
		return nil, ErrSessionClosed
	}
	if pr, ok := out.(panicReply); ok {
		return nil, pr.err
	}
	return out, nil
}

// Subscribe registers sub for this session's events. A session past
// serving refuses with ErrSessionClosed: its session-closed event is
// already on its way to the subscribers it had.
func (s *Session) Subscribe(sub subscriber) error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.phase > serving {
		return ErrSessionClosed
	}
	s.subs[sub] = struct{}{}
	return nil
}

// Unsubscribe removes sub.
func (s *Session) Unsubscribe(sub subscriber) {
	s.subMu.Lock()
	delete(s.subs, sub)
	s.subMu.Unlock()
}

// publish fans an event out to the subscribers. Delivery must not
// block (subscribers queue with drop-oldest backpressure).
func (s *Session) publish(ev Event) {
	s.subMu.Lock()
	subs := make([]subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.deliver(ev)
	}
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

func (s *Session) info() SessionInfo {
	s.subMu.Lock()
	clients := len(s.subs)
	s.subMu.Unlock()
	return SessionInfo{
		ID:       s.ID,
		Params:   s.Params,
		Busy:     s.busy.Load(),
		Commands: s.ncmds.Load(),
		IdleNS:   time.Since(time.Unix(0, s.lastUsed.Load())).Nanoseconds(),
		Clients:  clients,
	}
}
